#include "trace.h"

#include "src/encoding/id_list_codec.h"
#include "src/seabed/client.h"
#include "src/seabed/planner.h"
#include "src/seabed/server.h"
#include "src/seabed/translator.h"

namespace perfbench {

void LayerStats::WriteTo(Metrics& m) const {
  m.Set("parser.parse_us", parse_us.value(), "us");
  m.Set("translator.translate_us", translate_us.value(), "us");
  m.Set("translator.bind_us", bind_us.value(), "us");
  m.Set("translator.plan_cache_hit_ratio", plan_cache_hit.value(), "ratio");
  m.Set("placement.route_us", route_us.value(), "us");
  m.Set("placement.shards_routed_ratio", shards_routed.value(), "ratio");
  m.Set("probe.probe_us", probe_us.value(), "us");
  m.Set("probe.row_groups_pruned_ratio", row_groups_pruned.value(), "ratio");
  m.Set("server.scan_ms", scan_ms.value(), "ms");
  m.Set("server.join_ms", join_ms.value(), "ms");
  m.Set("server.rows_touched_per_query", rows_touched.value(), "count");
  m.Set("server.groups_per_query", groups.value(), "count");
  m.Set("encoding.response_bytes_per_query", response_bytes.value(), "B");
  m.Set("encoding.idlist_decode_ms", idlist_decode_ms.value(), "ms");
  m.Set("client.decrypt_ms", decrypt_ms.value(), "ms");
  m.Set("client.prf_calls_per_query", prf_calls.value(), "count");
  m.Set("sharded.merge_ms", merge_ms.value(), "ms");
  m.Set("result_cache.hit_ratio", cache_hit.value(), "ratio");
  m.Set("result_cache.lookup_us", cache_lookup_us.value(), "us");
  m.Set("service.queue_wait_ms", queue_wait_ms.value(), "ms");
  m.Set("service.batch_size_mean", batch_size.value(), "count");
  m.Set("service.coalesced_ratio", coalesced.value(), "ratio");
  m.Set("encryptor.encrypt_rows_per_s", encrypt_rows_per_s.value(), "1/s");
  m.Set("encryptor.append_encrypt_ms", append_encrypt_ms.value(), "ms");
  m.Set("snapshot.copy_ms", copy_ms.value(), "ms");
  m.Set("rebalance.rows_reencrypted_per_row_moved",
        rows_moved == 0 ? 0 : rows_reencrypted / rows_moved, "ratio");
  m.Set("rebalance.seconds", rebalance_seconds, "s");
  m.Set("pipeline.unattributed_ms", unattributed_ms.value(), "ms");
}

namespace {

double Ms(Clock::time_point start) { return SecondsSince(start) * 1e3; }

}  // namespace

ResultSet ComposedTracer::Run(const Query& query) {
  // The session path, timed as a whole.
  seabed::QueryStats qstats;
  auto t = Clock::now();
  ResultSet answer = session_.Execute(query, &qstats);
  const double session_ms = Ms(t);
  stats_.plan_cache_hit.Add(qstats.plan_cache_hit ? 1 : 0);
  stats_.prf_calls.Add(static_cast<double>(qstats.prf_calls));

  // The same query, composed from its layers.
  const seabed::EncryptedDatabase& db = session_.encrypted_database(query.table);
  const seabed::EncryptedDatabase* right_db = nullptr;
  if (query.join.has_value()) {
    right_db = &session_.encrypted_database(query.join->right_table);
  }
  const seabed::Cluster& cluster = session_.cluster();
  seabed::TranslatorOptions topts = session_.translator_options();
  topts.cluster_workers = cluster.num_workers();

  t = Clock::now();
  seabed::TranslatedQuery tq = seabed::Translator(db, session_.keys()).Translate(query, topts);
  if (tq.server.join.has_value()) {
    tq.server.join->right_table = right_db->table->name();
  }
  const double translate_ms = Ms(t);

  // Round one, under the session's probe policy (SeabedBackend's gate).
  const seabed::ProbeOptions& popts = session_.probe_options();
  double probe_ms = 0;
  bool probe_used = false;
  seabed::ServerProbeResult probe;
  if (popts.mode != seabed::ProbeMode::kOff && tq.probe.prunable) {
    bool go = popts.mode == seabed::ProbeMode::kForced || query.needs_two_round_trips;
    if (!go) {
      go = seabed::EstimateFilterSelectivity(query, session_.attached(query.table).schema) <=
           popts.auto_selectivity_threshold;
    }
    if (go) {
      auto& index = probes_[db.table.get()];
      if (index == nullptr) {
        index = std::make_unique<seabed::VersionProbeIndex>();
        index->Probe(*db.table, tq.probe, popts.row_group_size);  // untimed build
      }
      t = Clock::now();
      probe = index->Probe(*db.table, tq.probe, popts.row_group_size);
      probe_ms = Ms(t);
      probe_used = true;
      stats_.row_groups_pruned.Add(static_cast<double>(probe.pruned_groups),
                                   static_cast<double>(probe.total_groups));
    }
  }
  stats_.probe_us.Add(probe_ms * 1e3);

  seabed::EncryptedResponse response;
  double server_ms = 0;
  if (!(probe_used && probe.surviving.empty())) {
    t = Clock::now();
    response = seabed::Server().Execute(tq.server, cluster, db.table.get(),
                                        right_db == nullptr ? nullptr : right_db->table.get(),
                                        probe_used ? &probe.surviving : nullptr);
    server_ms = Ms(t);
  }
  stats_.scan_ms.Add(query.join.has_value() ? 0 : server_ms);
  stats_.join_ms.Add(query.join.has_value() ? server_ms : 0);
  stats_.rows_touched.Add(static_cast<double>(response.rows_touched));
  stats_.groups.Add(static_cast<double>(response.groups.size()));

  size_t blob_bytes = 0;
  t = Clock::now();
  for (const seabed::ServerGroup& group : response.groups) {
    for (const seabed::ServerAggResult& agg : group.aggs) {
      for (const seabed::Bytes& blob : agg.id_blobs) {
        blob_bytes += blob.size();
        const seabed::IdSet ids = seabed::IdListDecode(blob);
        (void)ids;
      }
    }
  }
  stats_.idlist_decode_ms.Add(Ms(t));
  stats_.response_bytes.Add(static_cast<double>(blob_bytes));

  t = Clock::now();
  seabed::QueryStats dstats;
  ResultSet composed =
      seabed::Client(db, session_.keys()).Decrypt(response, tq, cluster, right_db, &dstats);
  const double decrypt_ms = Ms(t);

  stats_.translate_us.Add(translate_ms * 1e3);
  stats_.decrypt_ms.Add(decrypt_ms);
  stats_.unattributed_ms.Add(session_ms - (translate_ms + probe_ms + server_ms + decrypt_ms));

  if (checker_.Inject("composed")) {
    CorruptResult(composed);
  }
  checker_.Expect(composed.rows == answer.rows, "composed",
                  "layer-by-layer answer differs from Session::Execute for " + ToSql(query));
  return answer;
}

void TraceIngest(const seabed::ClientKeys& keys, const seabed::EncryptedDatabase& dest,
                 const seabed::PlainSchema& schema, const Table& plain, const Table& batch,
                 LayerStats& stats) {
  const seabed::Encryptor encryptor(keys);
  auto t = Clock::now();
  const seabed::EncryptedDatabase fresh = encryptor.Encrypt(plain, schema, dest.plan);
  const double encrypt_s = SecondsSince(t);
  stats.encrypt_rows_per_s.Add(static_cast<double>(plain.NumRows()) / encrypt_s);
  (void)fresh;

  t = Clock::now();
  seabed::EncryptedDatabase copy = seabed::CopyEncryptedDatabase(dest);
  stats.copy_ms.Add(Ms(t));

  t = Clock::now();
  encryptor.AppendRows(copy, batch, schema);
  stats.append_encrypt_ms.Add(Ms(t));
}

}  // namespace perfbench
