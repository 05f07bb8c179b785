// bdb_batch: the Big Data Benchmark's Q1A-Q4 on kSeabed at a reduced scale,
// run as repeated passes by one batch client.
//
// Q1 filters rankings by an ORE range; Q2 groups uservisits by DET-encrypted
// sourceIP prefixes (about one group per ten rows at this size); Q3 joins
// uservisits with rankings over a visitDate window and groups by sourceIP;
// Q4 counts visits per destination. Time goes to server group-by and join,
// per-group decryption and response size; the one-analyst and serving
// layers do little. An ingest client appends a fixed set of small rankings
// batches, spread evenly over the timed phase (append_p50_ms), through a
// session of its own, so the queries never see them.
#include "analyst.h"
#include "src/workload/bdb.h"
#include "workloads.h"

namespace perfbench {

WorkloadResult RunBdbBatch(const Options& options, Metrics& metrics, LayerStats& layers,
                           Checker& checker) {
  const bool tiny = options.scale == "tiny";
  // A fixed fraction of the BDB default size (90k rankings, 775k visits).
  const uint64_t divisor = tiny ? 400 : 80;
  seabed::BdbSpec spec;
  spec.rankings_rows = 90000 / divisor;
  spec.uservisits_rows = 775000 / divisor;
  spec.num_urls = spec.rankings_rows / 3;
  spec.seed = options.seed;
  const size_t num_appends = tiny ? 3 : 60;

  // Inputs (not timed). The ingest session starts from its own copy of
  // rankings.
  const std::shared_ptr<Table> rankings = seabed::MakeRankingsTable(spec);
  const std::shared_ptr<Table> uservisits = seabed::MakeUserVisitsTable(spec);
  const std::shared_ptr<Table> ingest_rankings = SplitBatches(*rankings, 1).front();
  seabed::BdbSpec append_spec = spec;
  append_spec.rankings_rows = num_appends * (tiny ? 50 : 10);
  append_spec.seed = options.seed ^ 0x5eedULL;
  const auto batches = SplitBatches(*seabed::MakeRankingsTable(append_spec), num_appends);
  // Each pass opens with the batch job's input check, a row count of
  // uservisits; with the ten BDB queries that makes eleven per pass, so the
  // median query is a whole query class rather than the edge between two.
  std::vector<ScriptOp> pass = {{"SELECT COUNT(*) FROM uservisits", false}};
  for (const seabed::BdbQuery& bq : seabed::BdbQuerySet()) {
    pass.push_back({ToSql(bq.query), false});
  }

  // Set-up: both sessions, planning, encryption, upload of every table.
  const auto setup_start = Clock::now();
  seabed::SessionOptions sopts;
  sopts.backend = options.plain ? seabed::BackendKind::kPlain : seabed::BackendKind::kSeabed;
  sopts.cluster = MeasuredClusterConfig();
  sopts.probe.mode = seabed::ProbeMode::kAuto;
  sopts.key_seed = options.seed;
  seabed::Session session(sopts);
  session.Attach(rankings, seabed::RankingsSchema(), seabed::RankingsSampleQueries());
  session.Attach(uservisits, seabed::UserVisitsSchema(), seabed::UserVisitsSampleQueries());
  seabed::Session ingest(sopts);
  ingest.Attach(ingest_rankings, seabed::RankingsSchema(), seabed::RankingsSampleQueries());
  const double setup_s = SecondsSince(setup_start);

  AnalystSetup setup;
  setup.session = &session;
  setup.plain["rankings"] = rankings;
  setup.plain["uservisits"] = uservisits;
  setup.round = [&](size_t) { return pass; };
  Appender appender(ingest, "rankings", ingest_rankings->NumRows(), batches);
  setup.between = [&](double phase_done) {
    appender.Step(phase_done);
    return false;  // the queried session is unchanged
  };
  WorkloadResult result = RunAnalyst(options, setup, metrics, layers, checker);
  appender.Finish(metrics, checker);
  result.attempted += appender.size();

  if (options.trace) {
    TraceIngest(ingest.keys(), ingest.encrypted_database("rankings"), seabed::RankingsSchema(),
                *ingest_rankings, *batches[0], layers);
  }
  if (!options.trace) {
    metrics.Set("setup_s", setup_s, "s");
    metrics.Set("peak_rss_mb", PeakRssMb(), "MB");
    RecordStorage(session, {"rankings", "uservisits"},
                  rankings->NumRows() + uservisits->NumRows(), metrics);
  }
  return result;
}

}  // namespace perfbench
