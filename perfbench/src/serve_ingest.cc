// serve_ingest: a Service over kCachingSeabed -> kShardedSeabed (4 shards,
// key-range placement on the time column, rebalancing on), with writes
// beside reads.
//
// Three closed-loop clients send rounds of 10 queries: 6 prepared time
// slices (SUM/COUNT over a ts range of the initial data), 3 SPLASHE-filtered
// region counts and 1 full scan, each item Zipf-drawn from its class, so
// the result cache sees repeats. One appender streams time-ordered batches,
// one after every k-th completed query (Sizes::append_every): the script is
// fixed by the seed, not by a timer. This exercises queueing, shape
// batching and coalescing, the result cache and its invalidation, routing,
// the probe, shard merge, the append path (snapshot copy, encrypt,
// rebalance) and epoch reclamation; each query's own scan and decrypt work
// is small.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>

#include "src/common/rng.h"
#include "src/encoding/id_list_codec.h"
#include "src/engine/serialize.h"
#include "src/query/parser.h"
#include "src/seabed/caching_backend.h"
#include "src/seabed/planner.h"
#include "src/seabed/service.h"
#include "src/seabed/sharded_backend.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr const char kTable[] = "events";
constexpr size_t kClients = 3;
constexpr size_t kShards = 4;
constexpr uint64_t kRegions = 8;
constexpr double kRegionZipf = 1.1;

enum class Kind { kSlice, kRegion, kFull };
// One round of a client's script: 6 slices, 3 region counts, 1 full scan.
constexpr Kind kRound[] = {Kind::kSlice, Kind::kSlice,  Kind::kRegion, Kind::kSlice,
                           Kind::kSlice, Kind::kRegion, Kind::kSlice,  Kind::kFull,
                           Kind::kSlice, Kind::kRegion};

struct Sizes {
  size_t initial_rows;
  size_t batch_rows;
  size_t append_every;  // completed queries per append
  size_t slices;        // distinct time slices in the catalog
  size_t slice_width;
};

Sizes SizesFor(const Options& options) {
  if (options.scale == "tiny") {
    return {4000, 100, 10, 16, 100};
  }
  return {200000, 2000, 25, 1024, 20000};
}

std::string Region(uint64_t r) { return "r" + std::to_string(r); }

// Rows [first_ts, first_ts + rows): ts is the row's event time (one event
// per tick, time-ordered), region Zipf-skewed, value uniform.
std::shared_ptr<Table> MakeEvents(uint64_t first_ts, size_t rows, uint64_t seed) {
  seabed::Rng rng(seed);
  const seabed::ZipfSampler zipf(kRegions, kRegionZipf);
  auto ts = std::make_shared<seabed::Int64Column>();
  auto region = std::make_shared<seabed::StringColumn>();
  auto value = std::make_shared<seabed::Int64Column>();
  for (size_t i = 0; i < rows; ++i) {
    ts->Append(static_cast<int64_t>(first_ts + i));
    region->Append(Region(zipf.Sample(rng)));
    value->Append(static_cast<int64_t>(rng.Below(1000)));
  }
  auto table = std::make_shared<Table>(kTable);
  table->AddColumn("ts", ts);
  table->AddColumn("region", region);
  table->AddColumn("value", value);
  return table;
}

seabed::PlainSchema EventsSchema() {
  seabed::PlainSchema schema;
  schema.table_name = kTable;
  seabed::ValueDistribution dist;
  const seabed::ZipfSampler zipf(kRegions, kRegionZipf);
  for (uint64_t r = 0; r < kRegions; ++r) {
    dist.values.push_back(Region(r));
    dist.frequencies.push_back(zipf.Pmf(r));
  }
  schema.columns.push_back({"ts", seabed::ColumnType::kInt64, true, std::nullopt});
  schema.columns.push_back({"region", seabed::ColumnType::kString, true, std::move(dist)});
  schema.columns.push_back({"value", seabed::ColumnType::kInt64, true, std::nullopt});
  return schema;
}

const char* const kFullSql[] = {"SELECT COUNT(*) FROM events",
                                "SELECT SUM(value), COUNT(*) FROM events"};
const char kSliceSql[] = "SELECT SUM(value), COUNT(*) FROM events WHERE ts >= ? AND ts < ?";

std::string RegionSql(uint64_t r) {
  return "SELECT COUNT(*) FROM events WHERE region = '" + Region(r) + "'";
}

struct Op {
  Kind kind = Kind::kSlice;
  size_t item = 0;
};

struct Record {
  Op op;
  bool ok = false;
  std::vector<Value> row;
  double latency_ms = 0;
  double unattributed_ms = 0;
  seabed::ServiceStats stats;
};

int64_t IntAt(const std::vector<Value>& row, size_t i) {
  const auto* v = i < row.size() ? std::get_if<int64_t>(&row[i]) : nullptr;
  return v == nullptr ? -1 : *v;
}

// Plaintext facts about the initial table and every batch, from the
// generated columns: value prefix sums (ts == row index), region counts.
struct Ledger {
  std::vector<int64_t> value_prefix;  // value_prefix[i] = sum of values of rows < i
  std::vector<int64_t> region_count;  // initial table
  struct Batch {
    int64_t rows = 0;
    int64_t value_sum = 0;
    std::vector<int64_t> region_count;
  };
  std::vector<Batch> batches;

  static Batch Summarize(const Table& t) {
    Batch b;
    b.rows = static_cast<int64_t>(t.NumRows());
    b.region_count.assign(kRegions, 0);
    const auto* value = static_cast<const seabed::Int64Column*>(t.GetColumn("value").get());
    const auto* region = static_cast<const seabed::StringColumn*>(t.GetColumn("region").get());
    for (size_t i = 0; i < t.NumRows(); ++i) {
      b.value_sum += value->Get(i);
      b.region_count[std::stoul(region->Get(i).substr(1))] += 1;
    }
    return b;
  }
};

}  // namespace

WorkloadResult RunServeIngest(const Options& options, Metrics& metrics, LayerStats& layers,
                              Checker& checker) {
  const Sizes sizes = SizesFor(options);

  // Inputs (not timed): the initial table and the plaintext ledger.
  const std::shared_ptr<Table> table = MakeEvents(0, sizes.initial_rows, options.seed);
  const seabed::PlainSchema schema = EventsSchema();
  Ledger ledger;
  {
    const auto* value = static_cast<const seabed::Int64Column*>(table->GetColumn("value").get());
    ledger.value_prefix.assign(1, 0);
    for (size_t i = 0; i < table->NumRows(); ++i) {
      ledger.value_prefix.push_back(ledger.value_prefix.back() + value->Get(i));
    }
    ledger.region_count = Ledger::Summarize(*table).region_count;
  }
  std::vector<std::pair<int64_t, int64_t>> slices;  // [lo, hi), inside the initial data
  {
    seabed::Rng rng(options.seed * 31 + 7);
    for (size_t s = 0; s < sizes.slices; ++s) {
      const int64_t lo = static_cast<int64_t>(rng.Below(sizes.initial_rows - sizes.slice_width));
      slices.push_back({lo, lo + static_cast<int64_t>(sizes.slice_width)});
    }
  }
  auto batch_seed = [&](size_t b) { return options.seed * 1000003 + 17 * (b + 1); };
  std::vector<Query> samples = {
      seabed::MustParseSql("SELECT SUM(value), COUNT(*) FROM events WHERE ts >= 10 AND ts < 20"),
      seabed::MustParseSql(RegionSql(0)),
      seabed::MustParseSql("SELECT SUM(value), COUNT(*) FROM events WHERE region = 'r0'"),
      seabed::MustParseSql(kFullSql[1])};

  // Set-up: the service's session, planning, encryption, upload.
  const auto setup_start = Clock::now();
  seabed::ServiceOptions sopts;
  seabed::SessionOptions& session_opts = sopts.session;
  session_opts.cluster = MeasuredClusterConfig();
  session_opts.key_seed = options.seed;
  session_opts.probe.mode = seabed::ProbeMode::kAuto;
  if (options.plain) {
    session_opts.backend = seabed::BackendKind::kPlain;
  } else {
    session_opts.backend = seabed::BackendKind::kCachingSeabed;
    session_opts.cache.inner = seabed::BackendKind::kShardedSeabed;
    session_opts.shards = kShards;
    session_opts.shards_placement.policy = seabed::PlacementPolicy::kKeyRange;
    session_opts.shards_placement.clustering_columns[kTable] = "ts";
    session_opts.shards_rebalance.enabled = true;
  }
  // One core is left to the load generator (three clients, one appender).
  sopts.num_workers = std::max<size_t>(1, HostThreads() - 1);
  sopts.pace_modeled_latency = false;
  seabed::Service service(sopts);
  service.Attach(table, schema, samples);
  const double setup_s = SecondsSince(setup_start);

  const seabed::PreparedQuery slice_handle = service.Prepare(seabed::MustParseSql(kSliceSql));
  // Routing boundaries of the initial placement, for the traced route timing.
  std::vector<seabed::ShardKeyBoundary> bounds;
  if (options.trace) {
    const seabed::Placement placement = seabed::Placement::Resolve(
        session_opts.shards_placement, kTable, *table, kShards);
    bounds = placement.InitialBoundaries(*table, placement.PartitionRows(*table));
  }

  // --- timed phase -----------------------------------------------------------
  std::mutex mu;
  std::condition_variable cv;
  size_t completed = 0;       // guarded by mu
  bool clients_done = false;  // guarded by mu
  std::atomic<bool> stop{false};
  std::vector<std::vector<Record>> records(kClients);
  std::vector<double> append_ms;
  std::vector<std::shared_ptr<Table>> appended;  // acknowledged batches, in order
  size_t failed_appends = 0;

  auto client = [&](size_t c) {
    seabed::Rng rng(options.seed * 7919 + c);
    const seabed::ZipfSampler slice_zipf(slices.size(), 0.8);
    const seabed::ZipfSampler region_zipf(kRegions, 1.0);
    while (!stop.load()) {
      for (const Kind kind : kRound) {
        Record rec;
        rec.op.kind = kind;
        const auto start = Clock::now();
        std::future<seabed::ServiceResult> fut;
        if (kind == Kind::kSlice) {
          rec.op.item = slice_zipf.Sample(rng);
          const auto& [lo, hi] = slices[rec.op.item];
          fut = service.SubmitPrepared(slice_handle, {Value{lo}, Value{hi}});
        } else {
          std::string sql;
          if (kind == Kind::kRegion) {
            rec.op.item = region_zipf.Sample(rng);
            sql = RegionSql(rec.op.item);
          } else {
            rec.op.item = rng.Below(std::size(kFullSql));
            sql = kFullSql[rec.op.item];
          }
          fut = service.Submit(seabed::MustParseSql(sql));
        }
        seabed::ServiceResult result = fut.get();
        const auto end = Clock::now();
        rec.latency_ms = std::chrono::duration<double, std::milli>(end - start).count();
        rec.ok = result.ok;
        if (result.ok && result.rows.rows.size() == 1) {
          rec.row = std::move(result.rows.rows[0]);
        }
        if (options.trace) {
          const auto& st = result.stats;
          rec.unattributed_ms =
              rec.latency_ms - st.queue_wait_seconds * 1e3 -
              std::chrono::duration<double, std::milli>(st.exec_end - st.exec_begin).count();
          rec.stats = std::move(result.stats);
        }
        records[c].push_back(std::move(rec));
        {
          std::lock_guard<std::mutex> lock(mu);
          ++completed;
        }
        cv.notify_all();
      }
    }
  };

  auto appender = [&]() {
    for (size_t b = 0;; ++b) {
      std::shared_ptr<Table> batch = MakeEvents(sizes.initial_rows + b * sizes.batch_rows,
                                                sizes.batch_rows, batch_seed(b));
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return clients_done || completed >= (b + 1) * sizes.append_every; });
        if (clients_done) {
          return;
        }
      }
      const auto start = Clock::now();
      const seabed::ServiceResult result = service.SubmitAppend(kTable, batch).get();
      append_ms.push_back(SecondsSince(start) * 1e3);
      if (result.ok) {
        appended.push_back(std::move(batch));
      } else {
        ++failed_appends;
        return;  // a later batch would no longer be a legal prefix
      }
    }
  };

  const auto phase_start = Clock::now();
  std::thread append_thread(appender);
  std::vector<std::thread> client_threads;
  for (size_t c = 0; c < kClients; ++c) {
    client_threads.emplace_back(client, c);
  }
  while (SecondsSince(phase_start) < options.seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (std::thread& t : client_threads) {
    t.join();
  }
  const double phase_seconds = SecondsSince(phase_start);
  {
    std::lock_guard<std::mutex> lock(mu);
    clients_done = true;
  }
  cv.notify_all();
  append_thread.join();

  // --- checks ----------------------------------------------------------------
  for (const auto& batch : appended) {
    ledger.batches.push_back(Ledger::Summarize(*batch));
  }
  int64_t total_rows = static_cast<int64_t>(sizes.initial_rows);
  for (const auto& b : ledger.batches) {
    total_rows += b.rows;
  }
  // Is `row` the answer of a full-range query after some prefix of the
  // acknowledged appends? `counts[j]` / `sums[j]` describe prefix j.
  auto legal_prefix = [&](const Op& op, const std::vector<Value>& row) {
    int64_t count = op.kind == Kind::kRegion ? ledger.region_count[op.item]
                                             : static_cast<int64_t>(sizes.initial_rows);
    int64_t sum = ledger.value_prefix.back();
    for (size_t j = 0;; ++j) {
      const bool match = op.kind == Kind::kRegion || op.item == 0
                             ? IntAt(row, 0) == count
                             : IntAt(row, 0) == sum && IntAt(row, 1) == count;
      if (match) {
        return true;
      }
      if (j == ledger.batches.size()) {
        return false;
      }
      const auto& b = ledger.batches[j];
      count += op.kind == Kind::kRegion ? b.region_count[op.item] : b.rows;
      sum += b.value_sum;
    }
  };

  WorkloadResult out;
  std::vector<double> latencies_ms;
  for (auto& client_records : records) {
    for (Record& rec : client_records) {
      ++out.attempted;
      latencies_ms.push_back(rec.latency_ms);
      if (!rec.ok) {
        ++out.failed;
        continue;
      }
      if (rec.op.kind == Kind::kSlice) {
        if (checker.Inject("stable_slice")) {
          rec.row[0] = Value{IntAt(rec.row, 0) + 1};
        }
        const auto& [lo, hi] = slices[rec.op.item];
        const bool ok = IntAt(rec.row, 0) == ledger.value_prefix[hi] - ledger.value_prefix[lo] &&
                        IntAt(rec.row, 1) == hi - lo;
        checker.Expect(ok, "stable_slice",
                       "slice [" + std::to_string(lo) + ", " + std::to_string(hi) +
                           ") below the initial time bound changed or is wrong");
      } else {
        if (checker.Inject("prefix")) {
          rec.row[0] = Value{IntAt(rec.row, 0) + 1};
        }
        checker.Expect(legal_prefix(rec.op, rec.row), "prefix",
                       "a full-range answer matches no prefix of the acknowledged appends");
      }
    }
  }
  out.attempted += append_ms.size();
  out.failed += failed_appends;

  ResultSet final_count = service.Submit(seabed::MustParseSql(kFullSql[0])).get().rows;
  if (checker.Inject("final_count")) {
    CorruptResult(final_count);
  }
  checker.Expect(final_count.rows.size() == 1 && IntAt(final_count.rows[0], 0) == total_rows,
                 "final_count",
                 "final COUNT(*) != initial rows + acknowledged appended rows (" +
                     std::to_string(total_rows) + ")");
  service.Shutdown(/*drain=*/true);

  seabed::ShardedSeabedBackend* sharded = nullptr;
  if (!options.plain) {
    auto& caching = dynamic_cast<seabed::CachingSeabedBackend&>(service.session().executor());
    sharded = &dynamic_cast<seabed::ShardedSeabedBackend&>(caching.inner());
    int64_t shard_total = 0;
    for (const size_t n : sharded->ShardRowCounts(kTable)) {
      shard_total += static_cast<int64_t>(n);
    }
    if (checker.Inject("shard_sum")) {
      shard_total += 1;
    }
    checker.Expect(shard_total == total_rows, "shard_sum",
                   "per-shard row counts add up to " + std::to_string(shard_total) + ", not " +
                       std::to_string(total_rows));
  }

  if (!options.trace) {
    metrics.Set("setup_s", setup_s, "s");
    metrics.Set("queries_per_s", static_cast<double>(latencies_ms.size()) / phase_seconds, "1/s");
    metrics.Set("query_p50_ms", Percentile(latencies_ms, 50), "ms");
    metrics.Set("query_p95_ms", Percentile(latencies_ms, 95), "ms");
    metrics.Set("append_p50_ms", Percentile(append_ms, 50), "ms");
    metrics.Set("peak_rss_mb", PeakRssMb(), "MB");
    size_t bytes = 0;
    if (sharded != nullptr) {
      for (size_t s = 0; s < kShards; ++s) {
        bytes += seabed::SerializedTableSize(*sharded->shard_database(kTable, s).table);
      }
    } else {
      bytes = seabed::SerializedTableSize(*service.session().attached(kTable).plain);
    }
    metrics.Set("stored_bytes_per_row",
                static_cast<double>(bytes) / static_cast<double>(total_rows), "B");
    return out;
  }

  // --- traced run: per-layer accounting ----------------------------------------
  for (const auto& client_records : records) {
    for (const Record& rec : client_records) {
      const seabed::ServiceStats& st = rec.stats;
      const seabed::QueryStats& q = st.query;
      layers.queue_wait_ms.Add(st.queue_wait_seconds * 1e3);
      layers.batch_size.Add(static_cast<double>(st.batch_size));
      layers.coalesced.Add(st.coalesced ? 1 : 0);
      layers.cache_hit.Add(q.cache_hit ? 1 : 0);
      layers.cache_lookup_us.Add(q.cache_lookup_seconds * 1e6);
      layers.unattributed_ms.Add(rec.unattributed_ms);
      if (q.cache_hit) {
        continue;  // answered by the cache: no layer below it ran
      }
      layers.translate_us.Add(q.translate_seconds * 1e6);
      if (q.prepared) {
        layers.bind_us.Add(q.bind_seconds * 1e6);
      }
      layers.plan_cache_hit.Add(q.plan_cache_hit ? 1 : 0);
      layers.shards_routed.Add(static_cast<double>(q.shards_routed),
                               static_cast<double>(q.shards_total));
      layers.probe_us.Add(q.probe_seconds * 1e6);
      if (q.probe_used) {
        layers.row_groups_pruned.Add(static_cast<double>(q.row_groups_pruned),
                                     static_cast<double>(q.row_groups_total));
      }
      layers.merge_ms.Add(q.merge_seconds * 1e3);
      layers.decrypt_ms.Add(q.client_seconds * 1e3);
      layers.prf_calls.Add(static_cast<double>(q.prf_calls));
      layers.rows_touched.Add(static_cast<double>(q.rows_touched));
    }
  }
  if (sharded == nullptr) {
    return out;
  }
  if (const auto rebalance = service.session().rebalance_stats()) {
    layers.rows_moved = static_cast<double>(rebalance->rows_moved);
    layers.rows_reencrypted = static_cast<double>(rebalance->rows_reencrypted);
    layers.rebalance_seconds = rebalance->seconds;
  }

  // Composed replay on the final (quiescent) version of the first queries of
  // client 0's script: parse, route, translate, and each owning shard's
  // Server::Execute with the codec decode of its blobs.
  const seabed::Cluster& cluster = service.session().cluster();
  seabed::TranslatorOptions topts = service.session().translator_options();
  topts.cluster_workers = cluster.num_workers();
  const seabed::EncryptedDatabase& view = sharded->shard_database(kTable, 0);
  const size_t replay = std::min<size_t>(records[0].size(), 100);
  for (size_t i = 0; i < replay; ++i) {
    const Op& op = records[0][i].op;
    std::string sql = op.kind == Kind::kSlice ? kSliceSql
                      : op.kind == Kind::kRegion ? RegionSql(op.item)
                                                 : kFullSql[op.item];
    auto t = Clock::now();
    seabed::ParseResult parsed = seabed::ParseSql(sql);
    layers.parse_us.Add(SecondsSince(t) * 1e6);
    Query query = parsed.query;
    if (op.kind == Kind::kSlice) {
      query = query.BindParams(std::vector<Value>{Value{slices[op.item].first},
                                                  Value{slices[op.item].second}});
    }
    t = Clock::now();
    const auto range = seabed::ExtractClusteringKeyRange(query, "ts");
    const std::vector<bool> routed =
        seabed::Placement::RouteShards(bounds, range.value_or(seabed::ClusteringKeyRange{}));
    layers.route_us.Add(SecondsSince(t) * 1e6);
    (void)routed;  // timed only: rebalancing has moved the live boundaries since

    const seabed::TranslatedQuery tq = seabed::Translator(view, service.session().keys())
                                           .Translate(query, topts);
    double scan_ms = 0;
    double groups = 0;
    double blob_bytes = 0;
    double decode_ms = 0;
    for (size_t s = 0; s < kShards; ++s) {
      const seabed::EncryptedDatabase& part = sharded->shard_database(kTable, s);
      t = Clock::now();
      const seabed::EncryptedResponse response =
          seabed::Server().Execute(tq.server, cluster, part.table.get(), nullptr);
      const double ms = SecondsSince(t) * 1e3;
      // A routable query's cost is its owning shards'; the rest would be
      // routed away before fan-out.
      if (range.has_value() && response.rows_touched == 0) {
        continue;
      }
      scan_ms += ms;
      groups += static_cast<double>(response.groups.size());
      t = Clock::now();
      for (const auto& group : response.groups) {
        for (const auto& agg : group.aggs) {
          for (const auto& blob : agg.id_blobs) {
            blob_bytes += static_cast<double>(blob.size());
            (void)seabed::IdListDecode(blob);
          }
        }
      }
      decode_ms += SecondsSince(t) * 1e3;
    }
    layers.scan_ms.Add(scan_ms);
    layers.join_ms.Add(0);
    layers.groups.Add(groups);
    layers.response_bytes.Add(blob_bytes);
    layers.idlist_decode_ms.Add(decode_ms);
  }

  // The append path's layers, on the destination of a time-ordered batch:
  // the top key range's shard.
  TraceIngest(service.session().keys(), sharded->shard_database(kTable, kShards - 1), schema,
              *MakeEvents(0, sizes.initial_rows, options.seed),
              *MakeEvents(static_cast<uint64_t>(total_rows), sizes.batch_rows, batch_seed(0)),
              layers);
  return out;
}

}  // namespace perfbench
