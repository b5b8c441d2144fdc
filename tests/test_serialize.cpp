// Tests for the persistence layer: the common/json reader, full-fidelity
// (de)serialization of schedules / chips / stage values / flow results
// (byte-identical re-serialization across all six benchmark assays),
// cache-key canonicalization (stable under operation reordering, sensitive
// to every option), and the two result-cache tiers (LRU memory, on-disk).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "api/pipeline.h"
#include "api/result_cache.h"
#include "api/serialize.h"
#include "arch/chip_io.h"
#include "arch/synthesis.h"
#include "arch/workload.h"
#include "assay/benchmarks.h"
#include "common/json.h"
#include "sched/schedule_io.h"
#include "sched/scheduler.h"

namespace transtore {
namespace {

/// Cheap, deterministic scheduling configuration: the serialization layer
/// is format-testing, not solver-testing, so keep every assay fast even in
/// Debug/ASan builds.
sched::scheduler_options cheap_scheduler(int devices) {
  sched::scheduler_options o;
  o.device_count = devices;
  o.engine = sched::schedule_engine::heuristic;
  o.heuristic_restarts = 2;
  o.local_search_iterations = 200;
  return o;
}

api::pipeline_options cheap_pipeline(const assay::benchmark_resources& r) {
  api::pipeline_options o;
  o.device_count = r.devices;
  o.grid_width = r.grid;
  o.grid_height = r.grid;
  o.grid_growth = 2;
  o.schedule_engine = sched::schedule_engine::heuristic;
  o.heuristic_restarts = 2;
  o.local_search_iterations = 200;
  return o;
}

// ------------------------------------------------------------- json reader

TEST(JsonReader, ParsesScalarsArraysObjects) {
  const json_value v = json_value::parse(
      R"({"a":1,"b":-2.5e3,"c":"x\n\"y\"","d":[true,false,null],"e":{}})");
  EXPECT_EQ(v.at("a").as_int(), 1);
  EXPECT_DOUBLE_EQ(v.at("b").as_double(), -2500.0);
  EXPECT_EQ(v.at("c").as_string(), "x\n\"y\"");
  EXPECT_EQ(v.at("d").size(), 3u);
  EXPECT_TRUE(v.at("d")[0].as_bool());
  EXPECT_TRUE(v.at("d")[2].is_null());
  EXPECT_TRUE(v.at("e").is_object());
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonReader, RejectsMalformedInput) {
  for (const char* bad : {"", "{", "{\"a\":}", "[1,]", "tru", "\"unterminated",
                          "{}extra", "{\"a\":1 \"b\":2}"})
    EXPECT_THROW(json_value::parse(bad), invalid_input_error) << bad;
  EXPECT_THROW((void)json_value::parse("{\"a\":1}").at("a").as_string(),
               invalid_input_error);
  EXPECT_THROW((void)json_value::parse("1.5").as_long(), invalid_input_error);
  // 2^63 is exactly representable as a double but not as a long; it must be
  // the structured error, not an overflowing cast. LONG_MIN itself is fine.
  EXPECT_THROW((void)json_value::parse("9223372036854775808").as_long(),
               invalid_input_error);
  EXPECT_EQ(json_value::parse("-9223372036854775808").as_long(),
            std::numeric_limits<long>::min());
}

TEST(JsonReader, RoundTripsWriterOutputIncludingEscapes) {
  json_writer w;
  w.begin_object();
  w.field("text", std::string("line\nbreak\ttab \"quote\" \\slash"));
  w.field_exact("pi", 3.141592653589793);
  w.field("n", -42);
  w.end_object();
  const json_value v = json_value::parse(w.str());
  EXPECT_EQ(v.at("text").as_string(), "line\nbreak\ttab \"quote\" \\slash");
  EXPECT_DOUBLE_EQ(v.at("pi").as_double(), 3.141592653589793);
  EXPECT_EQ(v.at("n").as_int(), -42);

  // write_value re-emits a parsed document byte-identically (numbers keep
  // their source text).
  json_writer back;
  write_value(back, v);
  EXPECT_EQ(back.str(), w.str());
}

TEST(JsonReader, DecodesSurrogatePairEscapes) {
  // RFC 8259 clients (e.g. Python's json.dumps with ensure_ascii) encode
  // non-BMP characters as \uXXXX\uXXXX pairs; the serve front end must
  // accept them. U+1F600 = 😀 = F0 9F 98 80 in UTF-8.
  const json_value v = json_value::parse(R"({"id":"chip-😀"})");
  EXPECT_EQ(v.at("id").as_string(), "chip-\xF0\x9F\x98\x80");
  for (const char* bad :
       {R"("\ud83d")", R"("\ud83dx")", R"("\ud83dA")", R"("\ude00")"})
    EXPECT_THROW(json_value::parse(bad), invalid_input_error) << bad;
}

TEST(JsonReader, ExactDoublesSurviveRoundTrip) {
  for (const double d : {0.1, 1.0 / 3.0, 123456.789e-12, -2.5, 1e300}) {
    json_writer w;
    w.value_exact(d);
    EXPECT_EQ(json_value::parse(w.str()).as_double(), d) << w.str();
  }
}

// ------------------------------------------------- schedule/chip round trip

TEST(SerializeSchedule, ByteIdenticalRoundTripAcrossAllSixAssays) {
  for (const assay::benchmark_resources& r :
       assay::benchmark_resource_table()) {
    const auto graph = assay::make_benchmark(r.name);
    const sched::schedule s =
        sched::make_schedule(graph, cheap_scheduler(r.devices)).best;

    const std::string doc = sched::serialize(s);
    const sched::schedule restored = sched::schedule_from_json(doc);
    EXPECT_EQ(sched::serialize(restored), doc) << r.name;

    restored.validate(graph); // throws on any structural corruption
    EXPECT_EQ(restored.makespan(), s.makespan()) << r.name;
    EXPECT_EQ(restored.store_count(), s.store_count()) << r.name;
    EXPECT_EQ(restored.total_cache_time(), s.total_cache_time()) << r.name;
  }
}

TEST(SerializeChip, ByteIdenticalRoundTripAndRevalidation) {
  for (const char* name : {"PCR", "IVD", "RA30"}) {
    const auto graph = assay::make_benchmark(name);
    const int devices = name == std::string("PCR") ? 1 : 2;
    const sched::schedule s =
        sched::make_schedule(graph, cheap_scheduler(devices)).best;

    arch::arch_options ao;
    ao.grid_width = 4;
    ao.grid_height = 4;
    const arch::arch_result synthesized = arch::synthesize_architecture(s, ao);

    const std::string doc = arch::serialize(synthesized.result);
    const arch::chip restored = arch::chip_from_json(doc);
    EXPECT_EQ(arch::serialize(restored), doc) << name;

    restored.validate(synthesized.workload);
    EXPECT_EQ(restored.used_edge_count(), synthesized.result.used_edge_count());
    EXPECT_EQ(restored.valve_count(), synthesized.result.valve_count());
    EXPECT_EQ(restored.device_nodes(), synthesized.result.device_nodes());
  }
}

TEST(SerializeChip, RejectsCorruptDocuments) {
  EXPECT_THROW(arch::chip_from_json("{\"format\":99}"), invalid_input_error);
  EXPECT_THROW(sched::schedule_from_json("not json"), invalid_input_error);
  EXPECT_THROW(
      arch::chip_from_json(
          R"({"format":1,"kind":"chip","chip":{"grid_width":2,"grid_height":2,)"
          R"("device_nodes":[99],"paths":[],"caches":[]}})"),
      invalid_input_error);
}

// -------------------------------------------------- flow/stage round trips

TEST(SerializeFlow, ByteIdenticalRoundTripAcrossAllSixAssays) {
  for (const assay::benchmark_resources& r :
       assay::benchmark_resource_table()) {
    const auto graph = assay::make_benchmark(r.name);
    const api::pipeline_options options = cheap_pipeline(r);
    auto outcome = api::pipeline(graph, options).run();
    ASSERT_TRUE(outcome.ok()) << r.name << ": " << outcome.message();

    const std::string doc =
        api::serialize_flow(graph, options, outcome.value());
    auto restored = api::deserialize_flow(doc);
    ASSERT_TRUE(restored.ok()) << r.name << ": " << restored.message();
    EXPECT_EQ(api::serialize_flow(restored->graph, restored->options,
                                  restored->flow),
              doc)
        << r.name;

    // The summary report derived from the restored flow matches the
    // original byte for byte (timing included: it was serialized exactly).
    EXPECT_EQ(api::to_json(restored->graph, restored->flow),
              api::to_json(graph, outcome.value()))
        << r.name;
  }
}

TEST(SerializeStages, DeserializedStageContinuesThePipeline) {
  const auto graph = assay::make_pcr();
  api::pipeline_options o;
  o.schedule_engine = sched::schedule_engine::heuristic;
  const api::pipeline p(graph, o);

  auto s1 = p.schedule();
  ASSERT_TRUE(s1.ok()) << s1.message();
  const std::string doc1 = api::serialize_stage(s1.value());
  auto restored1 = api::deserialize_scheduled(doc1);
  ASSERT_TRUE(restored1.ok()) << restored1.message();
  EXPECT_EQ(api::serialize_stage(restored1.value()), doc1);

  // Continue the pipeline from the deserialized stage (the cross-process
  // reuse the documents exist for): the deterministic outputs must match
  // the direct path exactly (wall-clock fields differ by construction, so
  // compare the chip/layout payloads, not whole stage documents).
  auto s2_direct = s1->synthesize();
  auto s2_restored = restored1->synthesize();
  ASSERT_TRUE(s2_direct.ok());
  ASSERT_TRUE(s2_restored.ok()) << s2_restored.message();
  EXPECT_EQ(arch::serialize(s2_restored->chip()),
            arch::serialize(s2_direct->chip()));

  const std::string doc2 = api::serialize_stage(s2_direct.value());
  auto restored2 = api::deserialize_synthesized(doc2);
  ASSERT_TRUE(restored2.ok()) << restored2.message();
  EXPECT_EQ(api::serialize_stage(restored2.value()), doc2);

  auto s3_direct = s2_direct->compress();
  auto s3_restored = restored2->compress();
  ASSERT_TRUE(s3_direct.ok());
  ASSERT_TRUE(s3_restored.ok()) << s3_restored.message();
  EXPECT_EQ(s3_restored->layout().after_compression.width,
            s3_direct->layout().after_compression.width);
  EXPECT_EQ(s3_restored->layout().after_compression.height,
            s3_direct->layout().after_compression.height);
  EXPECT_EQ(s3_restored->layout().bend_points,
            s3_direct->layout().bend_points);

  const std::string doc3 = api::serialize_stage(s3_direct.value());
  auto restored3 = api::deserialize_compressed(doc3);
  ASSERT_TRUE(restored3.ok()) << restored3.message();
  EXPECT_EQ(api::serialize_stage(restored3.value()), doc3);

  // ... and the final stage still verifies from the restored value.
  auto s4 = restored3->verify();
  ASSERT_TRUE(s4.ok()) << s4.message();
  EXPECT_GT(s4->stats().transport_legs, 0);
}

TEST(SerializeStages, MalformedStageDocumentIsStructuredFailure) {
  auto r = api::deserialize_scheduled("{\"format\":1,\"kind\":\"flow\"}");
  EXPECT_FALSE(r.has_value());
  EXPECT_EQ(r.code(), api::status::invalid_input);
  EXPECT_FALSE(r.message().empty());
}

// --------------------------------------------------------------- cache key

TEST(CacheKey, StableUnderOperationReordering) {
  // The same protocol built with its operations (and dependencies) added in
  // a different order: ids differ, names agree -> identical canonical key.
  assay::sequencing_graph a("assay");
  const int a_m1 = a.add_operation("m1", 30);
  const int a_m2 = a.add_operation("m2", 40);
  const int a_m3 = a.add_operation("m3", 50);
  a.add_dependency(a_m1, a_m3);
  a.add_dependency(a_m2, a_m3);

  assay::sequencing_graph b("assay");
  const int b_m2 = b.add_operation("m2", 40);
  const int b_m3 = b.add_operation("m3", 50);
  const int b_m1 = b.add_operation("m1", 30);
  b.add_dependency(b_m2, b_m3);
  b.add_dependency(b_m1, b_m3);

  const api::pipeline_options o;
  const api::cache_key ka = api::make_cache_key(a, o);
  const api::cache_key kb = api::make_cache_key(b, o);
  EXPECT_EQ(ka.canonical, kb.canonical);
  EXPECT_EQ(ka.hash, kb.hash);
  EXPECT_EQ(ka.digest(), kb.digest());
  EXPECT_EQ(ka.digest().size(), 16u);
}

TEST(CacheKey, AnyGraphChangeHashesDifferent) {
  const auto base = assay::make_pcr();
  const api::pipeline_options o;
  const std::string base_key = api::make_cache_key(base, o).canonical;

  assay::sequencing_graph renamed("PCR2");
  for (int i = 0; i < base.operation_count(); ++i)
    renamed.add_operation(base.at(i).name, base.at(i).duration);
  for (const auto& [p, c] : base.edges()) renamed.add_dependency(p, c);
  EXPECT_NE(api::make_cache_key(renamed, o).canonical, base_key);

  assay::sequencing_graph longer("PCR");
  for (int i = 0; i < base.operation_count(); ++i)
    longer.add_operation(base.at(i).name,
                         base.at(i).duration + (i == 0 ? 10 : 0));
  for (const auto& [p, c] : base.edges()) longer.add_dependency(p, c);
  EXPECT_NE(api::make_cache_key(longer, o).canonical, base_key);
}

TEST(CacheKey, AnyOptionChangeHashesDifferent) {
  const auto graph = assay::make_pcr();
  const api::pipeline_options base;
  std::vector<api::pipeline_options> variants;
  auto with = [&](auto&& mutate) {
    api::pipeline_options o = base;
    mutate(o);
    variants.push_back(o);
  };
  with([](api::pipeline_options& o) { o.device_count = 2; });
  with([](api::pipeline_options& o) { o.grid_width = 5; });
  with([](api::pipeline_options& o) { o.grid_height = 5; });
  with([](api::pipeline_options& o) { o.timing.transport_time = 11; });
  with([](api::pipeline_options& o) { o.timing.storage_ports = 1; });
  with([](api::pipeline_options& o) { o.alpha = 1.0000000001; });
  with([](api::pipeline_options& o) { o.beta = 0.15000000001; });
  with([](api::pipeline_options& o) { o.storage_aware = false; });
  with([](api::pipeline_options& o) {
    o.schedule_engine = sched::schedule_engine::heuristic;
  });
  with([](api::pipeline_options& o) { o.sched_ilp_time_limit = 9.5; });
  with([](api::pipeline_options& o) { o.heuristic_restarts = 23; });
  with([](api::pipeline_options& o) { o.local_search_iterations = 5999; });
  with([](api::pipeline_options& o) {
    o.arch_engine = arch::synthesis_engine::ilp;
  });
  with([](api::pipeline_options& o) { o.arch_attempts = 7; });
  with([](api::pipeline_options& o) { o.grid_growth = 1; });
  with([](api::pipeline_options& o) { o.physical.scale = 6; });
  with([](api::pipeline_options& o) { o.physical.storage_length = 6; });
  with([](api::pipeline_options& o) { o.run_baseline = true; });
  with([](api::pipeline_options& o) { o.verify = false; });
  with([](api::pipeline_options& o) { o.seed = 2; });

  std::vector<std::string> keys;
  keys.push_back(api::make_cache_key(graph, base).canonical);
  for (const api::pipeline_options& o : variants)
    keys.push_back(api::make_cache_key(graph, o).canonical);
  for (std::size_t i = 0; i < keys.size(); ++i)
    for (std::size_t j = i + 1; j < keys.size(); ++j)
      EXPECT_NE(keys[i], keys[j]) << "variants " << i << " and " << j;
}

TEST(CacheKey, PermutedTwinSharesTheKeyButNeverBorrowsTheResult) {
  // Two insertion orders of the same protocol share the canonical key (the
  // stability guarantee above) -- but a cached flow_result addresses
  // operations by id, so the id-permuted twin must recompute instead of
  // being served a mis-mapped schedule. cache_key::identity enforces that.
  assay::sequencing_graph a("twin");
  const int a_m1 = a.add_operation("m1", 30);
  const int a_m2 = a.add_operation("m2", 60);
  a.add_dependency(a_m1, a_m2);

  assay::sequencing_graph b("twin");
  const int b_m2 = b.add_operation("m2", 60);
  const int b_m1 = b.add_operation("m1", 30);
  b.add_dependency(b_m1, b_m2);

  api::pipeline_options o;
  o.schedule_engine = sched::schedule_engine::heuristic;
  const api::cache_key ka = api::make_cache_key(a, o);
  const api::cache_key kb = api::make_cache_key(b, o);
  ASSERT_EQ(ka.canonical, kb.canonical);
  ASSERT_NE(ka.identity, kb.identity);

  auto cache = std::make_shared<api::result_cache>();
  auto run = [&cache](const assay::sequencing_graph& g,
                      const api::pipeline_options& options) {
    api::pipeline p(g, options);
    p.set_cache(cache);
    return p.run_cached();
  };

  auto first = run(a, o);
  ASSERT_TRUE(first.outcome.ok()) << first.outcome.message();
  EXPECT_FALSE(first.cache_hit);

  // The twin misses (its op ids differ) and overwrites the slot ...
  auto twin = run(b, o);
  ASSERT_TRUE(twin.outcome.ok()) << twin.outcome.message();
  EXPECT_FALSE(twin.cache_hit);
  // ... its schedule genuinely describes b (op 0 is the 60s operation).
  EXPECT_EQ(twin.outcome.value()->scheduling.best.ops[0].end -
                twin.outcome.value()->scheduling.best.ops[0].start,
            60);

  // Replays of the overwriting variant now hit.
  auto replay = run(b, o);
  ASSERT_TRUE(replay.outcome.ok());
  EXPECT_TRUE(replay.cache_hit);
  EXPECT_EQ(*replay.document, *twin.document);
}

// ------------------------------------------------------------ result cache

api::result_cache::entry dummy_entry(const std::string& doc) {
  api::result_cache::entry e;
  e.document = std::make_shared<const std::string>(doc);
  e.flow = std::make_shared<const api::flow_result>();
  return e;
}

api::cache_key key_for_seed(std::uint64_t seed) {
  api::pipeline_options o;
  o.seed = seed;
  return api::make_cache_key(assay::make_pcr(), o);
}

TEST(ResultCache, LruEvictsLeastRecentlyUsed) {
  api::result_cache cache(api::result_cache_options{2, ""});
  const api::cache_key k1 = key_for_seed(1);
  const api::cache_key k2 = key_for_seed(2);
  const api::cache_key k3 = key_for_seed(3);

  cache.store(k1, dummy_entry("one"));
  cache.store(k2, dummy_entry("two"));
  ASSERT_TRUE(static_cast<bool>(cache.lookup(k1))); // k1 now most recent
  cache.store(k3, dummy_entry("three"));     // evicts k2

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(static_cast<bool>(cache.lookup(k1)));
  EXPECT_FALSE(static_cast<bool>(cache.lookup(k2)));
  EXPECT_TRUE(static_cast<bool>(cache.lookup(k3)));
  const api::cache_stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.stores, 3u);
  EXPECT_EQ(stats.memory_hits, 3u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(ResultCache, ByteBudgetEvictsLruUntilUnderBudget) {
  api::result_cache_options co;
  co.memory_entries = 64; // entry count alone would never evict here
  co.memory_bytes = 10;
  api::result_cache cache(co);
  const api::cache_key k1 = key_for_seed(11);
  const api::cache_key k2 = key_for_seed(12);
  const api::cache_key k3 = key_for_seed(13);

  cache.store(k1, dummy_entry("aaaa")); // 4 bytes
  cache.store(k2, dummy_entry("bbbb")); // 8 bytes total
  EXPECT_EQ(cache.stats().bytes, 8u);
  cache.store(k3, dummy_entry("cccc")); // 12 -> evict k1 (LRU) back to 8

  const api::cache_stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, 8u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.bytes_evicted, 4u);
  EXPECT_FALSE(static_cast<bool>(cache.lookup(k1)));
  EXPECT_TRUE(static_cast<bool>(cache.lookup(k2)));
  EXPECT_TRUE(static_cast<bool>(cache.lookup(k3)));
}

TEST(ResultCache, OversizedEntryStaysCachedAloneUnderByteBudget) {
  api::result_cache_options co;
  co.memory_entries = 64;
  co.memory_bytes = 6;
  api::result_cache cache(co);
  const api::cache_key small = key_for_seed(21);
  const api::cache_key big = key_for_seed(22);

  cache.store(small, dummy_entry("xy")); // 2 bytes, fits
  // A document larger than the whole budget still caches: the most
  // recently stored entry is always kept, everything older is evicted.
  cache.store(big, dummy_entry(std::string(64, 'z')));

  const api::cache_stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 64u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.bytes_evicted, 2u);
  EXPECT_FALSE(static_cast<bool>(cache.lookup(small)));
  EXPECT_TRUE(static_cast<bool>(cache.lookup(big)));
}

TEST(ResultCache, HitsShareOneEntryObject) {
  // Zero-copy handout: every hit on a key returns the same shared entry
  // (and hence the same flow_result and document bytes) -- no per-hit
  // deep copy anywhere on the hit path.
  api::result_cache cache(api::result_cache_options{4, ""});
  const api::cache_key k = key_for_seed(31);
  cache.store(k, dummy_entry("shared"));

  const api::result_cache::entry_ptr a = cache.lookup(k);
  const api::result_cache::entry_ptr b = cache.lookup(k);
  ASSERT_TRUE(static_cast<bool>(a));
  ASSERT_TRUE(static_cast<bool>(b));
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(a->flow.get(), b->flow.get());
  EXPECT_EQ(a->document.get(), b->document.get());
}

TEST(ResultCache, StatsSnapshotIsConsistentUnderConcurrentTraffic) {
  // Writers store and read back distinct keys while a snapshotter spins:
  // because occupancy is captured under the same lock as the counters,
  // every snapshot satisfies the identities exactly (lookups fully
  // accounted, occupancy within both configured bounds).
  api::result_cache_options co;
  co.memory_entries = 8;
  co.memory_bytes = 64;
  api::result_cache cache(co);

  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load()) {
      const api::cache_stats s = cache.stats();
      EXPECT_EQ(s.lookups, s.memory_hits + s.disk_hits + s.misses);
      EXPECT_LE(s.entries, 8u);
      EXPECT_LE(s.evictions, s.stores); // can never evict more than stored
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < 3; ++w)
    writers.emplace_back([&cache, w] {
      for (int i = 0; i < 200; ++i) {
        const api::cache_key k =
            key_for_seed(static_cast<std::uint64_t>(100 + w * 200 + i));
        cache.store(k, dummy_entry("doc-" + std::to_string(i)));
        (void)cache.lookup(k);
      }
    });
  for (std::thread& t : writers) t.join();
  stop.store(true);
  snapshotter.join();

  const api::cache_stats s = cache.stats();
  EXPECT_EQ(s.stores, 600u);
  EXPECT_EQ(s.lookups, s.memory_hits + s.disk_hits + s.misses);
  EXPECT_LE(s.entries, 8u);
  EXPECT_GT(s.bytes_evicted, 0u);
}

TEST(ResultCache, SingleFlightStatsStayConsistentUnderConcurrentTraffic) {
  // lookup_or_lead under contention: leaders probe a disk tier outside the
  // lock, then store or abort; patient callers coalesce onto them; one
  // impatient caller gives up (bypass) whenever it has to wait. Every
  // snapshot must still satisfy lookups == memory_hits + disk_hits +
  // misses, and every call must be counted exactly once.
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "transtore_cache_flight")
          .string();
  std::filesystem::remove_all(dir);
  api::result_cache cache(api::result_cache_options{8, dir});
  using flight = api::result_cache::flight;

  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load()) {
      const api::cache_stats s = cache.stats();
      EXPECT_EQ(s.lookups, s.memory_hits + s.disk_hits + s.misses);
    }
  });

  // One bypass for certain: a waiter that gives up on a parked leader.
  const api::cache_key parked = key_for_seed(499);
  api::result_cache::entry_ptr out;
  ASSERT_EQ(cache.lookup_or_lead(parked, out, {}), flight::leader);
  std::thread impatient([&] {
    api::result_cache::entry_ptr mine;
    EXPECT_EQ(cache.lookup_or_lead(parked, mine, [] { return true; }),
              flight::bypass);
  });
  impatient.join();
  cache.store(parked, dummy_entry("parked"));

  constexpr int clients = 4;
  constexpr int keys = 24;
  std::atomic<int> bypasses{1};
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c)
    threads.emplace_back([&, c] {
      const bool gives_up = c == clients - 1;
      for (int i = 0; i < keys; ++i) {
        const api::cache_key k = key_for_seed(static_cast<std::uint64_t>(500 + i));
        api::result_cache::entry_ptr got;
        switch (cache.lookup_or_lead(k, got, [gives_up] { return gives_up; })) {
          case flight::leader:
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            if (i % 5 == 0)
              cache.abort_flight(k); // the next waiter takes over
            else
              cache.store(k, dummy_entry("doc-" + std::to_string(i)));
            break;
          case flight::bypass:
            ++bypasses;
            break;
          case flight::hit:
            break;
        }
      }
    });
  for (std::thread& t : threads) t.join();
  stop.store(true);
  snapshotter.join();

  const api::cache_stats s = cache.stats();
  EXPECT_EQ(s.lookups, static_cast<std::uint64_t>(2 + clients * keys));
  EXPECT_EQ(s.lookups, s.memory_hits + s.disk_hits + s.misses);
  EXPECT_GE(s.misses, static_cast<std::uint64_t>(bypasses.load()));
  std::filesystem::remove_all(dir);
}

TEST(ResultCache, DiskTierSurvivesProcessBoundary) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "transtore_cache_test")
          .string();
  std::filesystem::remove_all(dir);

  const auto graph = assay::make_pcr();
  api::pipeline_options o;
  o.schedule_engine = sched::schedule_engine::heuristic;
  const api::cache_key key = api::make_cache_key(graph, o);

  {
    auto cache = std::make_shared<api::result_cache>(
        api::result_cache_options{4, dir});
    api::pipeline p(graph, o);
    p.set_cache(cache);
    auto first = p.run_cached();
    ASSERT_TRUE(first.outcome.ok()) << first.outcome.message();
    EXPECT_FALSE(first.cache_hit);
    ASSERT_NE(first.document, nullptr);
    EXPECT_TRUE(std::filesystem::exists(
        std::filesystem::path(dir) / (key.digest() + ".json")));
  }

  // A brand-new cache instance (a "new process") over the same directory
  // serves the result from disk -- and byte-identically.
  auto cache = std::make_shared<api::result_cache>(
      api::result_cache_options{4, dir});
  auto hit = cache->lookup(key);
  ASSERT_TRUE(static_cast<bool>(hit));
  EXPECT_EQ(cache->stats().disk_hits, 1u);

  api::pipeline p(graph, o);
  p.set_cache(cache);
  auto replay = p.run_cached();
  ASSERT_TRUE(replay.outcome.ok());
  EXPECT_TRUE(replay.cache_hit);
  ASSERT_NE(replay.document, nullptr);
  EXPECT_EQ(*replay.document, *hit->document);
  EXPECT_EQ(api::serialize_flow(graph, o, *replay.outcome.value()),
            *replay.document);

  std::filesystem::remove_all(dir);
}

TEST(ResultCache, CorruptDiskEntryIsAMissNotAWrongResult) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "transtore_cache_corrupt")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const api::cache_key key = key_for_seed(7);
  {
    std::FILE* f = std::fopen(
        ((std::filesystem::path(dir) / (key.digest() + ".json")).string())
            .c_str(),
        "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"format\":1,\"kind\":\"flow\",\"garbage\":true}", f);
    std::fclose(f);
  }
  api::result_cache cache(api::result_cache_options{4, dir});
  EXPECT_FALSE(static_cast<bool>(cache.lookup(key)));
  EXPECT_EQ(cache.stats().disk_errors, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  std::filesystem::remove_all(dir);
}

} // namespace
} // namespace transtore
