// serve_mix: a closed loop of socket clients against `transtore_cli serve`.
//
// The corpus is a fixed set of generated assays (10-60 operations, 1-3
// devices, stratified sizes), relabeled by the seed, each requested as an
// inline-graph `synth` on the `sa` engine. The server's memory cache holds
// fewer entries than a round has keys. The --seconds window is split into
// rounds; each requests its own copy of the corpus, renamed (new keys for
// the cache, the same problems for the solver), in the same order, in two
// phases:
//
//   1. fill: every key of the round once, least popular first (all
//      misses) -> solve_s, the mean over rounds;
//   2. mix: shuffled decks of Zipf(1)-shaped popularity until the round's
//      share of the window ends, so hits, misses, coalesced waits and
//      evictions all occur -> req_per_s and the miss latency percentile,
//      pooled over rounds.
//
// Rounds spread the fills over the window, so a slow stretch of the host
// weighs on solve_s as much as on the other figures instead of landing on
// (or missing) one fill at the start.
//
// Responses are checked after the window: each distinct document must
// deserialize, carry simulator statistics consistent with its schedule,
// re-serialize byte-identically, and match every other document computed
// for its key once wall-clock fields are dropped; each hit must be
// byte-identical to a document served as a miss for the same key.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <map>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "api/pipeline.h"
#include "api/serialize.h"
#include "common/json.h"
#include "gen.h"
#include "proc.h"
#include "trace.h"
#include "workloads.h"

namespace transbench {
namespace {

using namespace transtore;

class connection {
public:
  connection() = default;
  connection(const connection&) = delete;
  connection& operator=(const connection&) = delete;
  ~connection() { close_fd(); }

  bool open(const std::string& path) {
    close_fd();
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) return false;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      close_fd();
      return false;
    }
    return true;
  }

  bool send_line(const std::string& line) {
    std::size_t sent = 0;
    while (sent < line.size()) {
      const ssize_t n = ::send(fd_, line.data() + sent, line.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  bool read_line(std::string& out) {
    for (;;) {
      const std::size_t nl = buffer_.find('\n', scanned_);
      if (nl != std::string::npos) {
        out.assign(buffer_, 0, nl);
        buffer_.erase(0, nl + 1);
        scanned_ = 0;
        return true;
      }
      scanned_ = buffer_.size();
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

private:
  void close_fd() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }
  int fd_ = -1;
  std::string buffer_;
  std::size_t scanned_ = 0;
};

struct corpus_key {
  std::string name;
  int ops = 0;
  int devices = 1;
  std::string graph_text;
};

struct sample {
  int key = -1;
  int round = 0;
  bool mix_phase = false;
  bool ok = false;
  bool hit = false;
  double latency_ms = 0.0;
  double service_ms = 0.0; // server-reported in-process seconds, as ms
  std::uint64_t doc_hash = 0;
  std::string error;
};

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) h = (h ^ c) * 0x100000001b3ULL;
  return h ^ s.size();
}

struct stored_doc {
  std::string text;
  bool served_as_miss = false;
};

/// Every distinct document seen, per key and content hash.
class doc_store {
public:
  void add(int key, std::uint64_t hash, const std::string& doc, bool miss) {
    std::lock_guard<std::mutex> lock(mu_);
    stored_doc& d = docs_[key][hash];
    if (d.text.empty()) d.text = doc;
    d.served_as_miss = d.served_as_miss || miss;
  }
  [[nodiscard]] const std::map<int, std::map<std::uint64_t, stored_doc>>&
  all() const {
    return docs_;
  }

private:
  std::mutex mu_;
  std::map<int, std::map<std::uint64_t, stored_doc>> docs_;
};

std::string synth_request(long id, const corpus_key& k) {
  json_writer w;
  w.begin_object();
  w.field("id", id);
  w.field("op", "synth");
  w.field("graph", k.graph_text);
  w.key("options");
  w.begin_object();
  w.field("device_count", k.devices);
  w.field("schedule_engine", "sa");
  w.end_object();
  w.end_object();
  return w.str() + "\n";
}

/// One request round trip, parsed into `s`; the document goes to `store`.
void exchange(connection& c, const std::string& request, const corpus_key& k,
              sample& s, doc_store& store, tracer& t, int job) {
  const auto job_span = t.scope("request " + k.name, "bench", job);
  std::string reply;
  const auto t0 = bench_clock::now();
  bool io_ok = false;
  {
    const auto io = t.scope("serve synth", "serve", job);
    io_ok = c.send_line(request) && c.read_line(reply);
  }
  s.latency_ms = seconds_since(t0) * 1e3;
  if (!io_ok) {
    s.error = "connection lost";
    return;
  }
  static const std::string marker = ",\"result\":";
  const std::size_t at = reply.find(marker);
  try {
    const json_value head = json_value::parse(
        at == std::string::npos ? reply : reply.substr(0, at) + "}");
    const std::string& status = head.at("status").as_string();
    if (status != "ok" || at == std::string::npos || reply.back() != '}') {
      s.error = k.name + ": status " + status;
      return;
    }
    s.hit = head.at("cache_hit").as_bool();
    s.service_ms = head.at("seconds").as_double() * 1e3;
  } catch (const std::exception& e) {
    s.error = k.name + ": unparsable reply: " + e.what();
    return;
  }
  const std::string doc =
      reply.substr(at + marker.size(), reply.size() - at - marker.size() - 1);
  s.doc_hash = fnv1a(doc);
  store.add(s.key, s.doc_hash, doc, !s.hit);
  s.ok = true;
}

/// The server process; a server still running when this goes out of scope
/// (an early return or an exception) is killed and reaped.
struct server {
  server() = default;
  server(const server&) = delete;
  server& operator=(const server&) = delete;
  ~server() { kill_and_wait(pid); }
  pid_t pid = -1;
  std::string socket_path;
};

/// Launch the server and time launch -> first accepted connection.
bool launch(const run_options& o, const std::string& socket_path,
            std::size_t cache_entries, server& srv, double& ready_seconds) {
  ::unlink(socket_path.c_str());
  const auto t0 = bench_clock::now();
  srv.pid = spawn({o.cli, "serve", "--socket", socket_path, "--workers", "2",
                   "--cache-capacity", std::to_string(cache_entries)});
  srv.socket_path = socket_path;
  if (srv.pid < 0) return false;
  connection probe;
  while (!probe.open(socket_path)) {
    if (seconds_since(t0) > 30.0) return false;
    int status = 0;
    if (waitpid(srv.pid, &status, WNOHANG) == srv.pid) {
      srv.pid = -1;
      return false;
    }
    ::usleep(200);
  }
  ready_seconds = seconds_since(t0);
  return true;
}

bool shutdown_server(server& srv, double* peak_rss_mb) {
  connection c;
  std::string ack;
  const bool acked = c.open(srv.socket_path) &&
                     c.send_line("{\"op\":\"shutdown\"}\n") && c.read_line(ack);
  if (!acked) {
    kill_and_wait(srv.pid);
    return false;
  }
  const int rc = wait_child(srv.pid, peak_rss_mb);
  srv.pid = -1;
  return rc == 0;
}

double number_at(const json_value& v, const std::string& group,
                 const std::string& key) {
  const json_value* g = v.find(group);
  const json_value* x = g != nullptr ? g->find(key) : nullptr;
  return x != nullptr ? x->as_double() : 0.0;
}

} // namespace

void run_serve_mix(const run_options& o, run_report& r) {
  const int rounds = 3;
  const int round_keys = o.tiny ? 12 : 32;
  const int key_count = rounds * round_keys;
  const std::size_t cache_entries = o.tiny ? 4 : 10;
  const int clients = 4;
  const int launches = 25;

  // The protocols are fixed generated templates, relabeled by the seed
  // (operation order and names, not the DAG): fresh structure per seed made
  // the corpus cost, and with it every figure of the run, a property of the
  // seed. The constant is one under which every template synthesizes for
  // every relabeling seed tried (1-250); under the first one tried, one
  // relabeling of a 58-operation template ran out of channel storage
  // (status "capacity"). The rounds send the same requests in the same
  // order, the assay names apart (new keys for the cache, the same problems
  // for the solver), so they do the same work.
  std::vector<protocol> relabeled;
  for (int i = 0; i < round_keys; ++i)
    relabeled.push_back(relabel(
        make_protocol(o.tiny ? 8 + i % 5 : 10 + (50 * i) / (round_keys - 1),
                      0x7A5E11ULL + static_cast<std::uint64_t>(i), 6),
        mix_seed(o.seed, 100 + static_cast<std::uint64_t>(i))));
  std::vector<corpus_key> corpus(static_cast<std::size_t>(key_count));
  for (int round = 0; round < rounds; ++round)
    for (int i = 0; i < round_keys; ++i) {
      const protocol& p = relabeled[static_cast<std::size_t>(i)];
      corpus_key& k = corpus[static_cast<std::size_t>(round * round_keys + i)];
      k.name = "K" + std::to_string(i) + "r" + std::to_string(round);
      k.ops = static_cast<int>(p.durations.size());
      // Larger protocols get more mixers (10-26 operations: 1, up to 43: 2,
      // then 3): one mixer running 50 operations needs more channel storage
      // than a grown grid offers. Tying the count to the size keeps the keys
      // of one size stratum alike, so a seed does not change the miss cost.
      k.devices = 1 + (k.ops - 10) / 17;
      k.graph_text = to_text(k.name, p);
    }
  // Popularity: Zipf(1) over ranks. Protocols are numbered by size, and
  // every tier of `strata` consecutive ranks holds one protocol of each size
  // stratum, so each popularity tier mixes small and large assays alike.
  // Like the templates, the ranks are fixed (drawn from a constant), and
  // every round gives its copies the same ranks: which protocols are rare,
  // and so miss, would otherwise move the miss cost from seed to seed.
  prng layout(0x2A9F0DULL);
  const int strata = o.tiny ? 4 : 8; // divides round_keys
  const int tiers = round_keys / strata;
  std::vector<std::vector<int>> members(static_cast<std::size_t>(strata));
  for (int m = 0; m < strata; ++m) {
    for (int q = 0; q < tiers; ++q)
      members[static_cast<std::size_t>(m)].push_back(m * tiers + q);
    layout.shuffle(members[static_cast<std::size_t>(m)]);
  }
  std::vector<std::vector<int>> by_tier(static_cast<std::size_t>(tiers));
  std::vector<int> by_rank;
  for (int q = 0; q < tiers; ++q) {
    auto& tier = by_tier[static_cast<std::size_t>(q)];
    for (const auto& stratum : members)
      tier.push_back(stratum[static_cast<std::size_t>(q)]);
    layout.shuffle(tier);
    by_rank.insert(by_rank.end(), tier.begin(), tier.end());
  }
  // The traffic is a sequence of shuffled decks. A deck holds every rank
  // as often as its Zipf(1) share of `deck_size` draws (at least once), so
  // the request mix of a round is Zipf-shaped by construction rather than
  // by the luck of independent draws, which would move the hit ratio and
  // the miss cost from seed to seed.
  const int deck_size = o.tiny ? 40 : 128;
  std::vector<int> deck;
  {
    const std::vector<double> shares = zipf_shares(round_keys, 1.0);
    double below = 0.0;
    for (int rank = 0; rank < round_keys; ++rank) {
      const double share = shares[static_cast<std::size_t>(rank)];
      const int copies = std::max(
          1, static_cast<int>(std::lround((below + share) * deck_size)) -
                 static_cast<int>(std::lround(below * deck_size)));
      below += share;
      deck.insert(deck.end(), static_cast<std::size_t>(copies),
                  by_rank[static_cast<std::size_t>(rank)]);
    }
  }
  // The seed draws the request order; every round uses the same one.
  // The fill goes from the least popular tier to the most popular, so the
  // cache holds the popular keys when the mix starts; each tier largest
  // first, so the fill does not end on a lone long solve.
  std::vector<int> fill_order, mix_order;
  for (int q = tiers - 1; q >= 0; --q) {
    std::vector<int> tier = by_tier[static_cast<std::size_t>(q)];
    std::sort(tier.rbegin(), tier.rend());
    fill_order.insert(fill_order.end(), tier.begin(), tier.end());
  }
  prng rng(mix_seed(o.seed, 1));
  while (mix_order.size() < 50000) {
    rng.shuffle(deck);
    mix_order.insert(mix_order.end(), deck.begin(), deck.end());
  }
  auto round_keys_of = [&](const std::vector<int>& order, int round) {
    std::vector<int> keys;
    for (const int i : order) keys.push_back(round * round_keys + i);
    return keys;
  };

  // Setup: launch the server several times; the last launch serves the run.
  const std::string socket_path =
      o.out_dir + "/serve-" + std::to_string(::getpid()) + ".sock";
  std::vector<double> ready;
  server srv;
  for (int l = 0; l < launches; ++l) {
    double seconds = 0.0;
    if (!launch(o, socket_path, cache_entries, srv, seconds)) {
      r.attempted = 1;
      r.fail("server did not start");
      return;
    }
    ready.push_back(seconds);
    if (l + 1 < launches && !shutdown_server(srv, nullptr)) {
      r.attempted = 1;
      r.fail("server did not shut down cleanly");
      return;
    }
  }
  r["setup_s"] = median(ready);

  const auto origin = bench_clock::now();
  doc_store store;
  std::vector<tracer> tracers;
  for (int c = 0; c < clients; ++c) tracers.emplace_back(o.trace, origin);
  std::vector<std::vector<sample>> samples(static_cast<std::size_t>(clients));
  std::vector<connection> conns(static_cast<std::size_t>(clients));
  for (connection& c : conns)
    if (!c.open(socket_path)) {
      shutdown_server(srv, nullptr);
      r.attempted = 1;
      r.fail("cannot connect");
      return;
    }

  auto run_phase = [&](const std::vector<int>& keys, int round, bool mix,
                       double stop_at) {
    std::atomic<long> next{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c)
      threads.emplace_back([&, c] {
        auto& mine = samples[static_cast<std::size_t>(c)];
        try {
          for (;;) {
            if (stop_at > 0.0 && seconds_since(origin) >= stop_at) return;
            const long i = next.fetch_add(1);
            if (i >= static_cast<long>(keys.size())) return;
            sample s;
            s.key = keys[static_cast<std::size_t>(i)];
            s.round = round;
            s.mix_phase = mix;
            const corpus_key& k = corpus[static_cast<std::size_t>(s.key)];
            exchange(conns[static_cast<std::size_t>(c)], synth_request(i, k), k,
                     s, store, tracers[static_cast<std::size_t>(c)],
                     static_cast<int>((2 * round + (mix ? 1 : 0)) * 1000000 + i));
            const bool lost = !s.ok && s.error == "connection lost";
            mine.push_back(std::move(s));
            if (lost) return;
          }
        } catch (const std::exception& e) {
          sample s;
          s.key = 0;
          s.error = std::string("client thread: ") + e.what();
          mine.push_back(std::move(s));
        }
      });
    for (std::thread& t : threads) t.join();
  };

  // Each round takes its share of the window: a fill (every key of the
  // round once, all misses), then the Zipf mix until the share is used up,
  // but for at least 40% of a share.
  const double share = o.seconds / rounds;
  std::vector<double> fill_seconds, mix_seconds;
  for (int round = 0; round < rounds; ++round) {
    const double fill_start = seconds_since(origin);
    run_phase(round_keys_of(fill_order, round), round, false, 0.0);
    const double mix_start = seconds_since(origin);
    fill_seconds.push_back(mix_start - fill_start);
    run_phase(round_keys_of(mix_order, round), round, true,
              std::max(share * (round + 1), mix_start + 0.4 * share));
    mix_seconds.push_back(seconds_since(origin) - mix_start);
  }

  // A stats reply is a sequence point only for its own connection, and the
  // server books a response's latency after writing it, so the last
  // responses of the other connections may land a moment later: poll until
  // the count settles on what was sent.
  json_value stats;
  long sent = 0;
  for (const auto& v : samples) sent += static_cast<long>(v.size());
  double synth_count = 0.0, synth_total_ms = 0.0;
  for (int attempt = 0; attempt < 100; ++attempt) {
    std::string line;
    if (!conns[0].send_line("{\"op\":\"stats\"}\n") || !conns[0].read_line(line))
      break;
    stats = json_value::parse(line);
    const json_value* serve = stats.find("serve");
    const json_value* latency = serve ? serve->find("latency") : nullptr;
    const json_value* synth = latency ? latency->find("synth") : nullptr;
    synth_count = synth ? synth->at("count").as_double() : 0.0;
    synth_total_ms = synth ? synth->at("total_ms").as_double() : 0.0;
    if (synth_count == static_cast<double>(sent)) break;
    ::usleep(10000);
  }
  double server_rss = 0.0;
  const bool clean = shutdown_server(srv, &server_rss);
  ::unlink(socket_path.c_str());

  // ---- checks, outside the measured window
  std::vector<sample> all;
  for (auto& v : samples)
    for (sample& s : v) all.push_back(std::move(s));
  r.attempted = static_cast<long>(all.size());
  if (!clean) r.fail("server exit was not clean");

  tracer checks(o.trace, origin);
  std::map<std::uint64_t, std::string> doc_error; // per hash, "" = good
  std::map<int, api::flow_document> first_doc;
  std::map<int, std::string> canonical; // timing-free rendering per key
  std::vector<double> serialize_ms;
  std::vector<double> doc_kb;
  int check_job = 2 * rounds * 1000000; // past every request's job id
  for (const auto& [key, docs] : store.all()) {
    const corpus_key& k = corpus[static_cast<std::size_t>(key)];
    for (const auto& [hash, d] : docs) {
      const int job = check_job++;
      const auto job_span = checks.scope("check " + k.name, "bench", job);
      std::string why;
      try {
        api::result<api::flow_document> parsed = [&] {
          const auto s = checks.scope("api::deserialize_flow", "serialize", job);
          return api::deserialize_flow(d.text);
        }();
        if (!parsed.ok()) throw std::runtime_error(parsed.message());
        const api::flow_document& fd = parsed.value();
        const api::flow_result& f = fd.flow;
        if (!f.stats) throw std::runtime_error("no simulator statistics");
        if (f.stats->makespan != f.scheduling.best.makespan() ||
            f.stats->operations != k.ops ||
            fd.graph.operation_count() != k.ops || fd.graph.name() != k.name)
          throw std::runtime_error("simulator disagrees with the schedule");
        {
          const auto s = checks.scope("chip::validate", "arch", job);
          f.architecture.result.validate(f.architecture.workload);
        }
        const auto t0 = bench_clock::now();
        std::string again;
        {
          const auto s = checks.scope("api::serialize_flow", "serialize", job);
          again = api::serialize_flow(fd.graph, fd.options, f);
        }
        serialize_ms.push_back(seconds_since(t0) * 1e3);
        doc_kb.push_back(static_cast<double>(d.text.size()) / 1024.0);
        if (again != d.text)
          throw std::runtime_error("re-serialization is not byte-identical");
        const std::string timing_free = api::to_json(fd.graph, f, false);
        auto [it, fresh] = canonical.emplace(key, timing_free);
        if (!fresh && it->second != timing_free)
          throw std::runtime_error("recomputed result differs");
        if (d.served_as_miss && first_doc.count(key) == 0)
          first_doc.emplace(key, fd);
      } catch (const std::exception& e) {
        why = e.what();
        if (why.empty()) why = "check failed";
      }
      doc_error[hash] = why;
    }
  }

  std::vector<double> hit_ms, miss_ms, hit_service_ms, all_ms;
  std::vector<long> mix_ok(static_cast<std::size_t>(rounds), 0);
  std::vector<long> round_misses(static_cast<std::size_t>(rounds), 0);
  for (const sample& s : all) {
    const std::string& name = corpus[static_cast<std::size_t>(s.key)].name;
    if (!s.ok) {
      r.fail(s.error);
      continue;
    }
    if (!doc_error[s.doc_hash].empty()) {
      r.fail(name + ": " + doc_error[s.doc_hash]);
      continue;
    }
    if (s.hit && !store.all().at(s.key).at(s.doc_hash).served_as_miss) {
      r.fail(name + ": hit document matches no computed document");
      continue;
    }
    all_ms.push_back(s.latency_ms);
    if (!s.mix_phase) continue;
    ++mix_ok[static_cast<std::size_t>(s.round)];
    (s.hit ? hit_ms : miss_ms).push_back(s.latency_ms);
    if (!s.hit) ++round_misses[static_cast<std::size_t>(s.round)];
    if (s.hit) hit_service_ms.push_back(s.service_ms);
  }
  for (int key = 0; key < key_count; ++key)
    if (first_doc.count(key) == 0)
      r.fail(corpus[static_cast<std::size_t>(key)].name + ": never computed");

  std::string per_round;
  for (int round = 0; round < rounds; ++round) {
    const auto i = static_cast<std::size_t>(round);
    per_round += "; round " + std::to_string(round) + ": fill " +
                 std::to_string(fill_seconds[i]) + " s, mix " +
                 std::to_string(mix_ok[i]) + " ok (" +
                 std::to_string(round_misses[i]) + " misses) in " +
                 std::to_string(mix_seconds[i]) + " s";
  }
  r.notes.push_back(std::to_string(rounds) + " rounds of " +
                    std::to_string(round_keys) + " keys, mix " +
                    std::to_string(hit_ms.size()) + " hits and " +
                    std::to_string(miss_ms.size()) + " misses" + per_round);
  // ---- end-to-end, pooled over rounds: the host's speed swings within a
  // second, so the longest measured stretch is the steadiest figure.
  const double mix_total = std::accumulate(mix_seconds.begin(), mix_seconds.end(), 0.0);
  r["solve_s"] = mean(fill_seconds);
  r["req_per_s"] = static_cast<double>(
                       std::accumulate(mix_ok.begin(), mix_ok.end(), 0L)) /
                   mix_total;
  r["miss_p90_ms"] = percentile(miss_ms, 0.90);
  r["peak_rss_mb"] = server_rss;
  r["ok_share"] = static_cast<double>(r.attempted - r.failed) /
                  static_cast<double>(std::max(1L, r.attempted));

  // ---- per-layer
  r["serve.hit_p50_ms"] = percentile(hit_ms, 0.50);
  r["serve.hit_p99_ms"] = percentile(hit_ms, 0.99);
  r["serve.miss_p50_ms"] = percentile(miss_ms, 0.50);
  r["cache.hit_service_ms"] = percentile(hit_service_ms, 0.50);
  r["executor.hit_wait_ms"] =
      r["serve.hit_p50_ms"] - r["cache.hit_service_ms"];
  r["serialize.flow_ms"] = median(serialize_ms);
  r["serialize.doc_kb"] = mean(doc_kb);
  if (synth_count > 0.0)
    r["serve.transport_ms"] =
        mean(all_ms) - synth_total_ms / synth_count;
  const double responses = number_at(stats, "serve", "responses");
  r["serve.bytes_out_per_req"] =
      responses > 0.0 ? number_at(stats, "serve", "bytes_out") / responses : 0.0;
  const double lookups = number_at(stats, "cache", "lookups");
  r["cache.hit_ratio"] =
      lookups > 0.0 ? number_at(stats, "cache", "memory_hits") / lookups : 0.0;
  r["cache.evictions"] = number_at(stats, "cache", "evictions");
  r["cache.coalesced_hits"] = number_at(stats, "cache", "coalesced_hits");
  r["cache.bytes"] = number_at(stats, "cache", "bytes");
  r["serve.shed"] = number_at(stats, "serve", "shed");
  r["serve.framing_errors"] = number_at(stats, "serve", "framing_errors");
  r["executor.rejected_queue_full"] =
      number_at(stats, "executor", "rejected_queue_full");
  if (synth_count != static_cast<double>(all.size()))
    r.fail("server stats count " + std::to_string(synth_count) +
           " synth requests, client sent " + std::to_string(all.size()));

  // Quality and stage times over the distinct problems: the first round's
  // keys (the other rounds pose the same problems under other names), first
  // computation of each (recomputations are byte-identical apart from wall
  // clocks).
  for (const auto& [key, d] : first_doc) {
    if (key >= round_keys) break;
    const api::flow_result& f = d.flow;
    add_quality(r, f, d.options);
    r["pipeline.schedule_s"] += f.scheduling.seconds;
    r["pipeline.synthesize_s"] += f.architecture.seconds;
    r["pipeline.compress_s"] += f.layout.seconds;
    r["pipeline.verify_s"] += f.total_seconds - f.scheduling.seconds -
                              f.architecture.seconds - f.layout.seconds;
  }

  tracer merged(o.trace, origin);
  for (const tracer& t : tracers) merged.merge(t);
  merged.merge(checks);
  report_trace(o, r, merged);
}

} // namespace transbench
