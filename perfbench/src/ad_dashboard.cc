// ad_dashboard: one analyst in a closed loop on kSeabed over the paper's
// wide ad-analytics table (33 dimensions, 18 measures), issuing ad-hoc SQL.
//
// Each round is 12 queries of the AdAnalyticsQueryLog (hourly sums of 1-3
// measures over an hour range, a fifth of them finished on the client) and
// 8 hourly sums filtered by equality on a SPLASHE or enhanced-SPLASHE
// dimension, with Zipf-drawn values. The time goes to the scan kernels, the
// SPLASHE rewrite and client ASHE decryption; group-by hashing, joins,
// routing, caching and appends barely register. A fixed set of appends is
// spread evenly over the timed phase (append_p50_ms); queries after an
// append see its rows. Two conservation checks run after the phase.

#include "analyst.h"
#include "src/common/rng.h"
#include "src/query/parser.h"
#include "src/workload/ad_analytics.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr const char kTable[] = "ad_analytics";

struct SplasheDim {
  std::string name;
  bool enhanced = false;
  std::vector<std::string> domain;  // every value the generator can emit
  seabed::ZipfSampler zipf;
  std::vector<std::string> measures;  // co-splayed measures
};

int64_t AsInt(const Value& v) {
  const auto* i = std::get_if<int64_t>(&v);
  return i == nullptr ? -1 : *i;
}

// Hourly group sums add up to the ungrouped sum, with and without a SPLASHE
// filter; filtered counts over a SPLASHE dimension's whole domain add up to
// the row count (enhanced SPLASHE's dummy cells must never count).
void CheckConservation(seabed::Session& session, const std::vector<SplasheDim>& dims,
                       size_t rows, Checker& checker) {
  auto run = [&](const std::string& sql) { return session.Execute(seabed::MustParseSql(sql)); };

  std::vector<std::pair<std::string, std::string>> pairs = {{"M1", ""}, {"M7", ""}};
  for (const SplasheDim& dim : dims) {
    pairs.push_back({dim.measures.front(), dim.name + " = '" + dim.domain.front() + "'"});
  }
  for (const auto& [measure, filter] : pairs) {
    const std::string where = filter.empty() ? "" : " WHERE " + filter;
    ResultSet grouped =
        run("SELECT hour, SUM(" + measure + ") FROM " + kTable + where + " GROUP BY hour");
    const ResultSet total = run("SELECT SUM(" + measure + ") FROM " + kTable + where);
    if (checker.Inject("conservation_groups")) {
      CorruptResult(grouped);
    }
    int64_t sum = 0;
    for (const auto& row : grouped.rows) {
      sum += AsInt(row.back());
    }
    const bool ok = total.rows.size() == 1 && AsInt(total.rows[0][0]) == sum;
    checker.Expect(ok, "conservation_groups",
                   "hourly SUM(" + measure + ")" + where + " does not add up to the total");
  }

  for (const SplasheDim& dim : dims) {
    int64_t count = 0;
    for (const std::string& value : dim.domain) {
      ResultSet r = run(std::string("SELECT COUNT(*) FROM ") + kTable + " WHERE " + dim.name +
                        " = '" + value + "'");
      if (checker.Inject("conservation_splashe")) {
        CorruptResult(r);
      }
      count += r.rows.empty() ? 0 : AsInt(r.rows[0][0]);
    }
    checker.Expect(count == static_cast<int64_t>(rows), "conservation_splashe",
                   "counts over every value of " + dim.name + " add up to " +
                       std::to_string(count) + ", not " + std::to_string(rows));
  }
}

}  // namespace

WorkloadResult RunAdDashboard(const Options& options, Metrics& metrics, LayerStats& layers,
                              Checker& checker) {
  const bool tiny = options.scale == "tiny";
  seabed::AdAnalyticsSpec spec;
  spec.rows = tiny ? 3000 : 100000;
  spec.seed = options.seed;
  const size_t num_appends = tiny ? 3 : 20;
  const size_t append_rows = tiny ? 100 : 500;

  // Inputs (not timed): the table, its schema, the planner's sample queries,
  // the query log and the append batches.
  const std::shared_ptr<Table> table = seabed::MakeAdAnalyticsTable(spec);
  const seabed::PlainSchema schema = seabed::AdAnalyticsSchema(spec);
  const std::vector<Query> samples = seabed::AdAnalyticsSampleQueries(spec);
  const size_t log_len = 12000;
  const std::vector<Query> log = seabed::AdAnalyticsQueryLog(spec, log_len, log_len / 5);
  seabed::AdAnalyticsSpec append_spec = spec;
  append_spec.rows = num_appends * append_rows;
  append_spec.seed = options.seed ^ 0x5eedULL;
  const auto batches = SplitBatches(*seabed::MakeAdAnalyticsTable(append_spec), num_appends);

  // Set-up: session, planning, encryption, upload.
  const auto setup_start = Clock::now();
  seabed::SessionOptions sopts;
  sopts.backend = options.plain ? seabed::BackendKind::kPlain : seabed::BackendKind::kSeabed;
  sopts.cluster = MeasuredClusterConfig();
  sopts.probe.mode = seabed::ProbeMode::kAuto;
  sopts.key_seed = options.seed;
  seabed::Session session(sopts);
  session.Attach(table, schema, samples);
  const double setup_s = SecondsSince(setup_start);

  // The SPLASHE-protected dimensions, as the planner laid them out.
  std::vector<SplasheDim> dims;
  const seabed::EncryptionPlan& plan = session.plan(kTable);
  for (size_t d = 0; d < spec.sensitive_dim_cardinalities.size(); ++d) {
    const std::string name = "SDim" + std::to_string(d + 1);
    const seabed::SplasheLayout* layout = plan.FindSplashe(name);
    if (layout == nullptr || layout->splayed_measures.empty()) {
      continue;
    }
    const uint64_t card = spec.sensitive_dim_cardinalities[d];
    SplasheDim dim{name, layout->enhanced, {}, seabed::ZipfSampler(card, spec.zipf_s),
                   layout->splayed_measures};
    // The generator's value names (src/workload/ad_analytics.cc).
    const std::string prefix = std::string("d").append(std::to_string(d + 1)).append("_v");
    for (uint64_t v = 0; v < card; ++v) {
      dim.domain.push_back(prefix + std::to_string(v));
    }
    dims.push_back(std::move(dim));
  }
  checker.Expect(!dims.empty(), "setup", "the planner splayed no dimension");
  if (dims.empty()) {
    return {};
  }
  // Conservation runs over the smallest basic and the smallest enhanced
  // dimension (their domains are short enough to enumerate).
  std::vector<SplasheDim> conservation_dims;
  for (const bool enhanced : {false, true}) {
    for (const SplasheDim& dim : dims) {
      if (dim.enhanced == enhanced) {
        conservation_dims.push_back(dim);
        break;
      }
    }
  }

  AnalystSetup setup;
  setup.session = &session;
  setup.plain[kTable] = table;
  setup.round = [&, seed = options.seed](size_t round) {
    seabed::Rng rng(seed * 1000003 + round);
    std::vector<ScriptOp> ops;
    for (size_t i = 0; i < 12; ++i) {
      const Query& q = log[(round * 12 + i) % log.size()];
      ops.push_back({ToSql(q), q.has_udf});
    }
    for (size_t i = 0; i < 8; ++i) {
      const SplasheDim& dim = dims[(round * 8 + i) % dims.size()];
      const std::string& value = dim.domain[dim.zipf.Sample(rng)];
      const std::string& measure = dim.measures[rng.Below(dim.measures.size())];
      ops.push_back({"SELECT hour, SUM(" + measure + "), COUNT(*) FROM " + std::string(kTable) +
                         " WHERE " + dim.name + " = '" + value + "' GROUP BY hour",
                     false});
    }
    return ops;
  };

  Appender appender(session, kTable, table->NumRows(), batches);
  setup.between = [&](double phase_done) { return appender.Step(phase_done); };
  WorkloadResult result = RunAnalyst(options, setup, metrics, layers, checker);
  appender.Finish(metrics, checker);
  result.attempted += appender.size();
  // The attached plaintext table has grown with the appends.
  CheckConservation(session, conservation_dims, table->NumRows(), checker);

  if (options.trace) {
    TraceIngest(session.keys(), session.encrypted_database(kTable), schema, *table, *batches[0],
                layers);
  }
  if (!options.trace) {
    metrics.Set("setup_s", setup_s, "s");
    // Peak RSS before the storage measurement, whose serialization buffer is
    // the benchmark's, not the workload's.
    metrics.Set("peak_rss_mb", PeakRssMb(), "MB");
    RecordStorage(session, {kTable}, table->NumRows(), metrics);
  }
  return result;
}

}  // namespace perfbench
