#include "api/result_cache.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "api/serialize.h"
#include "common/json.h"

namespace transtore::api {
namespace {

[[nodiscard]] std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ull; // FNV offset basis
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull; // FNV prime
  }
  return h;
}

/// Round-trip-exact double rendering for the canonical text (reuses the
/// writer so cache keys and documents agree on formatting).
[[nodiscard]] std::string exact(double v) {
  json_writer w;
  w.value_exact(v);
  return w.str();
}

} // namespace

std::string cache_key::digest() const {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

cache_key make_cache_key(const assay::sequencing_graph& graph,
                         const pipeline_options& o) {
  return make_cache_key(graph, o, std::string());
}

cache_key make_cache_key(const assay::sequencing_graph& graph,
                         const pipeline_options& o,
                         const std::string& scenario) {
  std::ostringstream out;
  out << "transtore.key.v1\n";

  // --- graph, canonicalized by operation name when names are unique.
  const int n = graph.operation_count();
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  bool unique_names = true;
  {
    std::vector<std::string> names;
    names.reserve(order.size());
    for (int i = 0; i < n; ++i) names.push_back(graph.at(i).name);
    std::sort(names.begin(), names.end());
    unique_names =
        std::adjacent_find(names.begin(), names.end()) == names.end();
  }
  if (unique_names) {
    std::sort(order.begin(), order.end(), [&graph](int a, int b) {
      return graph.at(a).name < graph.at(b).name;
    });
  }
  out << "graph " << graph.name() << " ops=" << n
      << " edges=" << graph.edge_count()
      << (unique_names ? "" : " id-order") << "\n";
  for (const int id : order) {
    const assay::operation& op = graph.at(id);
    out << "op " << (unique_names ? op.name : std::to_string(id)) << " "
        << op.duration << " <-";
    std::vector<std::string> parents;
    parents.reserve(op.parents.size());
    for (const int parent : op.parents)
      parents.push_back(unique_names ? graph.at(parent).name
                                     : std::to_string(parent));
    std::sort(parents.begin(), parents.end());
    for (const std::string& parent : parents) out << " " << parent;
    out << "\n";
  }

  // --- options: every field, exact doubles. The canonical text reuses the
  // serializer so a new pipeline_options field added to write_options
  // automatically changes keys (a deliberate invalidation).
  {
    json_writer w;
    write_options(w, o);
    out << "options " << w.str() << "\n";
  }
  // alpha/beta repeated in exact form defensively: write_options already
  // renders them exact, but the key must never rely on lossy formatting.
  out << "objective alpha=" << exact(o.alpha) << " beta=" << exact(o.beta)
      << "\n";
  // Appended only when present: the empty-scenario key is byte-identical
  // to the plain two-argument key (existing digests and disk files hold).
  if (!scenario.empty()) out << "scenario " << scenario << "\n";

  cache_key key;
  key.canonical = out.str();
  key.hash = fnv1a(key.canonical);

  // Id-faithful identity (see cache_key::identity): operations in id
  // order with their parent ids. Options are omitted -- equal canonicals
  // already imply equal options.
  std::ostringstream id_text;
  id_text << "transtore.id.v1\ngraph " << graph.name() << "\n";
  for (int i = 0; i < n; ++i) {
    const assay::operation& op = graph.at(i);
    id_text << "op " << i << " " << op.name << " " << op.duration << " <-";
    for (const int parent : op.parents) id_text << " " << parent;
    id_text << "\n";
  }
  key.identity = id_text.str();
  return key;
}

// ------------------------------------------------------------ result_cache

result_cache::result_cache(result_cache_options options)
    : options_(std::move(options)) {
  if (options_.memory_entries == 0) options_.memory_entries = 1;
}

result_cache::entry_ptr result_cache::lookup(const cache_key& key) {
  // A lookup is counted under the same lock as its outcome (memory hit,
  // disk hit or miss), so every stats() snapshot has
  // lookups == memory_hits + disk_hits + misses.
  {
    std::lock_guard<std::mutex> guard(lock_);
    const auto it = index_.find(key.canonical);
    if (it != index_.end() && it->second->identity == key.identity) {
      ++stats_.lookups;
      ++stats_.memory_hits;
      touch(it->second);
      return it->second->value;
    }
    if (options_.disk_dir.empty()) {
      ++stats_.lookups;
      ++stats_.misses;
      return nullptr;
    }
  }
  // Disk probe outside the lock: deserialization is the expensive part and
  // concurrent probes for different keys should not serialize.
  entry_ptr from_disk = disk_lookup(key);
  std::lock_guard<std::mutex> guard(lock_);
  ++stats_.lookups;
  if (!from_disk) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.disk_hits;
  insert_locked(key, from_disk);
  return from_disk;
}

result_cache::flight result_cache::lookup_or_lead(
    const cache_key& key, entry_ptr& out,
    const std::function<bool()>& give_up) {
  // As in lookup(), each outcome is counted together with its lookup under
  // one lock; a bypass counts as a miss (the caller solves uncached).
  {
    std::unique_lock<std::mutex> guard(lock_);
    bool waited = false;
    for (;;) {
      const auto it = index_.find(key.canonical);
      if (it != index_.end() && it->second->identity == key.identity) {
        ++stats_.lookups;
        ++stats_.memory_hits;
        if (waited) ++stats_.coalesced_hits; // rode a leader's solve
        touch(it->second);
        out = it->second->value;
        return flight::hit;
      }
      // Equal-canonical, different-identity entries (an id-permuted twin's
      // result) fall through: this caller recomputes and overwrites.
      if (inflight_.insert(key.canonical).second) break; // we lead
      // A concurrent leader is solving this key; coalesce onto its result.
      // Short waits so give_up (deadline/cancel) is polled responsively
      // and a leader that died without abort_flight cannot park us forever.
      flight_done_.wait_for(guard, std::chrono::milliseconds(50));
      waited = true;
      if (give_up && give_up()) {
        ++stats_.lookups;
        ++stats_.misses;
        return flight::bypass;
      }
    }
  }
  // Leader path: probe the disk tier (outside the lock) before conceding a
  // miss.
  entry_ptr from_disk =
      options_.disk_dir.empty() ? nullptr : disk_lookup(key);
  std::lock_guard<std::mutex> guard(lock_);
  ++stats_.lookups;
  if (!from_disk) {
    ++stats_.misses;
    return flight::leader;
  }
  ++stats_.disk_hits;
  insert_locked(key, from_disk);
  inflight_.erase(key.canonical);
  flight_done_.notify_all();
  out = std::move(from_disk);
  return flight::hit;
}

void result_cache::store(const cache_key& key, entry e) {
  if (!options_.disk_dir.empty()) disk_store(key, e);
  entry_ptr shared = std::make_shared<const entry>(std::move(e));
  {
    std::lock_guard<std::mutex> guard(lock_);
    ++stats_.stores;
    insert_locked(key, std::move(shared));
    inflight_.erase(key.canonical);
  }
  flight_done_.notify_all();
}

void result_cache::abort_flight(const cache_key& key) {
  {
    std::lock_guard<std::mutex> guard(lock_);
    inflight_.erase(key.canonical);
  }
  flight_done_.notify_all();
}

std::optional<result_cache::negative_entry> result_cache::lookup_negative(
    const cache_key& key) {
  std::lock_guard<std::mutex> guard(lock_);
  const auto it = negative_index_.find(key.canonical);
  if (it == negative_index_.end() || it->second->identity != key.identity)
    return std::nullopt;
  ++stats_.negative_hits;
  negative_order_.splice(negative_order_.begin(), negative_order_,
                         it->second);
  return it->second->value;
}

void result_cache::store_negative(const cache_key& key, negative_entry e) {
  if (e.code != status::infeasible && e.code != status::invalid_input)
    return; // only structural failures are deterministic for the key
  std::lock_guard<std::mutex> guard(lock_);
  if (options_.negative_entries == 0) return;
  ++stats_.negative_stores;
  const auto it = negative_index_.find(key.canonical);
  if (it != negative_index_.end()) {
    it->second->identity = key.identity;
    it->second->value = std::move(e);
    negative_order_.splice(negative_order_.begin(), negative_order_,
                           it->second);
    return;
  }
  negative_order_.push_front(
      negative_slot{key.canonical, key.identity, std::move(e)});
  negative_index_[key.canonical] = negative_order_.begin();
  while (negative_order_.size() > options_.negative_entries) {
    negative_index_.erase(negative_order_.back().canonical);
    negative_order_.pop_back();
    ++stats_.negative_evictions;
  }
}

cache_stats result_cache::stats() const {
  std::lock_guard<std::mutex> guard(lock_);
  // One atomic snapshot: the occupancy fields are captured under the same
  // lock as the counters, so a concurrent store can never yield a stats
  // document whose numbers disagree with each other.
  cache_stats out = stats_;
  out.entries = order_.size();
  out.bytes = bytes_;
  out.negative_entries = negative_order_.size();
  return out;
}

std::size_t result_cache::size() const {
  std::lock_guard<std::mutex> guard(lock_);
  return order_.size();
}

void result_cache::touch(lru_list::iterator it) {
  order_.splice(order_.begin(), order_, it);
}

void result_cache::insert_locked(const cache_key& key, entry_ptr e) {
  const auto it = index_.find(key.canonical);
  if (it != index_.end()) {
    bytes_ -= charge(it->second->value);
    bytes_ += charge(e);
    it->second->identity = key.identity;
    it->second->value = std::move(e);
    touch(it->second);
    evict_to_budget_locked();
    return;
  }
  bytes_ += charge(e);
  order_.push_front(slot{key.canonical, key.identity, std::move(e)});
  index_[key.canonical] = order_.begin();
  evict_to_budget_locked();
}

void result_cache::evict_to_budget_locked() {
  // Entry-count bound first, then the byte budget; both stop before
  // evicting the most recently touched entry, so one oversized document
  // still caches (exceeding the byte budget by exactly that entry).
  while (order_.size() > 1 &&
         (order_.size() > options_.memory_entries ||
          (options_.memory_bytes > 0 && bytes_ > options_.memory_bytes))) {
    const std::size_t released = charge(order_.back().value);
    bytes_ -= released;
    stats_.bytes_evicted += released;
    index_.erase(order_.back().canonical);
    order_.pop_back();
    ++stats_.evictions;
  }
}

std::string result_cache::disk_path(const cache_key& key) const {
  return options_.disk_dir + "/" + key.digest() + ".json";
}

result_cache::entry_ptr result_cache::disk_lookup(const cache_key& key) {
  std::string text;
  {
    std::ifstream in(disk_path(key), std::ios::binary);
    if (!in) return nullptr; // plain miss: no file for this digest
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }
  // The file ends with the newline disk_store appended; the in-memory
  // document must stay byte-identical to the originally stored string.
  while (!text.empty() && (text.back() == '\n' || text.back() == '\r'))
    text.pop_back();
  auto parsed = deserialize_flow(text);
  if (!parsed.ok()) {
    std::lock_guard<std::mutex> guard(lock_);
    ++stats_.disk_errors;
    return nullptr;
  }
  // Exact verification: re-derive the key from the embedded identity. A
  // digest collision (or a stale/corrupt file) reads as a miss.
  const cache_key stored =
      make_cache_key(parsed.value().graph, parsed.value().options);
  if (stored.canonical != key.canonical) {
    std::lock_guard<std::mutex> guard(lock_);
    ++stats_.disk_errors;
    return nullptr;
  }
  // An id-permuted twin's file (equal canonical, different id numbering)
  // is a plain miss, not an error: the caller recomputes and overwrites.
  if (stored.identity != key.identity) return nullptr;
  flow_document doc = std::move(parsed).take();
  entry e;
  e.document = std::make_shared<const std::string>(std::move(text));
  e.flow = std::make_shared<const flow_result>(std::move(doc.flow));
  return std::make_shared<const entry>(std::move(e));
}

void result_cache::disk_store(const cache_key& key, const entry& e) {
  if (!e.document) return;
  namespace fs = std::filesystem;
  std::error_code ec;
  {
    std::lock_guard<std::mutex> guard(lock_);
    if (!disk_dir_ready_) {
      fs::create_directories(options_.disk_dir, ec);
      if (ec) {
        ++stats_.disk_errors;
        return;
      }
      disk_dir_ready_ = true;
    }
  }
  const std::string path = disk_path(key);
  // Unique per process AND thread: two servers sharing one cache dir must
  // not interleave writes into the same temp file.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid())) + "." +
      std::to_string(static_cast<unsigned long long>(
          std::hash<std::thread::id>{}(std::this_thread::get_id())));
  // FILE* instead of ofstream: the bytes must be fsync'd to stable storage
  // *before* the rename publishes the file, or a crash between rename and
  // writeback could leave a truncated document under the final name (the
  // rename can survive a crash that the data does not). A failed fsync is
  // treated like a failed write: the temp file is discarded and the store
  // becomes a recorded disk error, never a corrupt published entry.
  {
    std::FILE* out = std::fopen(tmp.c_str(), "wb");
    if (!out) {
      std::lock_guard<std::mutex> guard(lock_);
      ++stats_.disk_errors;
      return;
    }
    const std::string& doc = *e.document;
    const bool wrote =
        std::fwrite(doc.data(), 1, doc.size(), out) == doc.size() &&
        std::fputc('\n', out) != EOF;
    const bool synced =
        wrote && std::fflush(out) == 0 && ::fsync(::fileno(out)) == 0;
    const bool closed = std::fclose(out) == 0;
    if (!wrote || !synced || !closed) {
      std::lock_guard<std::mutex> guard(lock_);
      ++stats_.disk_errors;
      fs::remove(tmp, ec);
      return;
    }
  }
  fs::rename(tmp, path, ec); // atomic within one filesystem
  if (ec) {
    std::lock_guard<std::mutex> guard(lock_);
    ++stats_.disk_errors;
    fs::remove(tmp, ec);
  }
}

} // namespace transtore::api
