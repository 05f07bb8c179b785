// The traced run's per-layer accounting.
//
// Layers are the library's src/ modules. Each per-layer metric is either
// timed by the benchmark's own clock around a call into that layer's public
// functions (the composed single-server path below), or read from a
// QueryStats / ServiceStats field the library measures on the host. Modeled
// fields (server_seconds, network_seconds, shard_server_seconds,
// TotalSeconds(), JobStats::server_seconds) are never read.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <map>
#include <memory>
#include <string>

#include "bench_util.h"
#include "src/seabed/snapshot.h"

namespace perfbench {

// Running mean of one per-layer quantity.
struct Avg {
  double sum = 0;
  double n = 0;
  void Add(double v, double weight = 1) {
    sum += v;
    n += weight;
  }
  double value() const { return n == 0 ? 0 : sum / n; }
};

// Every per-layer metric of the benchmark; layers a workload does not
// exercise stay at zero.
struct LayerStats {
  Avg parse_us, translate_us, bind_us, plan_cache_hit;
  Avg route_us, shards_routed;
  Avg probe_us, row_groups_pruned;
  Avg scan_ms, join_ms, rows_touched, groups;
  Avg response_bytes, idlist_decode_ms;
  Avg decrypt_ms, prf_calls;
  Avg merge_ms;
  Avg cache_hit, cache_lookup_us;
  Avg queue_wait_ms, batch_size, coalesced;
  Avg encrypt_rows_per_s, append_encrypt_ms, copy_ms;
  double rows_moved = 0, rows_reencrypted = 0, rebalance_seconds = 0;
  Avg unattributed_ms;

  void WriteTo(Metrics& metrics) const;
};

// Runs one query through a single-server kSeabed session twice: once through
// Session::Execute (timed as a whole) and once composed by hand from the
// layers it is built of — Translator::Translate, the row-group probe,
// Server::Execute, IdListDecode (timed on its own, not part of the
// composition: Client::Decrypt decodes the same blobs) and Client::Decrypt.
// The difference between the session's wall time and the composed layers is
// pipeline.unattributed_ms. Returns the session's answer; the composed
// answer must equal it (check "composed").
class ComposedTracer {
 public:
  ComposedTracer(seabed::Session& session, LayerStats& stats, Checker& checker)
      : session_(session), stats_(stats), checker_(checker) {}

  ResultSet Run(const Query& query);

 private:
  seabed::Session& session_;
  LayerStats& stats_;
  Checker& checker_;
  // The benchmark's own row-group summaries, one per fact table, built
  // untimed on first use (the backend builds its own once per version too).
  std::map<const Table*, std::unique_ptr<seabed::VersionProbeIndex>> probes_;
};

// The ingest layers, composed by hand as an append runs them: times
// Encryptor::Encrypt of `plain` under `dest`'s plan (encrypt_rows_per_s),
// CopyEncryptedDatabase of `dest` (the copy an append makes of its
// destination table or shard part) and Encryptor::AppendRows of `batch` onto
// that copy.
void TraceIngest(const seabed::ClientKeys& keys, const seabed::EncryptedDatabase& dest,
                 const seabed::PlainSchema& schema, const Table& plain, const Table& batch,
                 LayerStats& stats);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
