#include "analyst.h"

#include "src/engine/serialize.h"
#include "src/query/parser.h"

namespace perfbench {

namespace {

// The query log's client-side finishing step: least-squares slope of the
// first aggregate over the first group column.
double HourlyTrend(const ResultSet& result) {
  double n = 0, sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (const auto& row : result.rows) {
    if (row.size() < 2) {
      continue;
    }
    const auto* hour = std::get_if<int64_t>(&row[0]);
    const auto* value = std::get_if<int64_t>(&row[1]);
    if (hour == nullptr || value == nullptr) {
      continue;
    }
    const double x = static_cast<double>(*hour);
    const double y = static_cast<double>(*value);
    n += 1;
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double denom = n * sxx - sx * sx;
  return denom == 0 ? 0 : (n * sxy - sx * sy) / denom;
}

// Keeps the finishing step's result observable, so it is not optimized away.
volatile double finishing_sink = 0;

std::shared_ptr<Table> SliceTable(const Table& src, size_t begin, size_t end) {
  auto out = std::make_shared<Table>(src.name());
  for (const std::string& name : src.column_names()) {
    const seabed::ColumnPtr& col = src.GetColumn(name);
    if (col->type() == seabed::ColumnType::kInt64) {
      auto c = std::make_shared<seabed::Int64Column>();
      const auto* s = static_cast<const seabed::Int64Column*>(col.get());
      for (size_t i = begin; i < end; ++i) {
        c->Append(s->Get(i));
      }
      out->AddColumn(name, std::move(c));
    } else {
      auto c = std::make_shared<seabed::StringColumn>();
      const auto* s = static_cast<const seabed::StringColumn*>(col.get());
      for (size_t i = begin; i < end; ++i) {
        c->Append(s->Get(i));
      }
      out->AddColumn(name, std::move(c));
    }
  }
  return out;
}

}  // namespace

std::vector<std::shared_ptr<Table>> SplitBatches(const Table& rows, size_t n) {
  std::vector<std::shared_ptr<Table>> batches;
  const size_t per = rows.NumRows() / n;
  for (size_t b = 0; b < n; ++b) {
    const size_t end = b + 1 == n ? rows.NumRows() : (b + 1) * per;
    batches.push_back(SliceTable(rows, b * per, end));
  }
  return batches;
}

WorkloadResult RunAnalyst(const Options& options, const AnalystSetup& setup, Metrics& metrics,
                          LayerStats& layers, Checker& checker) {
  seabed::Session& session = *setup.session;
  std::map<std::string, Answer> references;
  std::unique_ptr<ComposedTracer> tracer;
  if (options.trace) {
    tracer = std::make_unique<ComposedTracer>(session, layers, checker);
  }

  std::vector<double> latencies_ms;
  double phase_seconds = 0;
  double trend_sink = 0;
  WorkloadResult out;
  for (size_t round = 0; phase_seconds < options.seconds; ++round) {
    for (const ScriptOp& op : setup.round(round)) {
      ++out.attempted;
      const auto start = Clock::now();
      Query query;
      if (options.trace) {
        const seabed::ParseResult parsed = seabed::ParseSql(op.sql);
        layers.parse_us.Add(SecondsSince(start) * 1e6);
        checker.Expect(parsed.ok, "parse", op.sql + ": " + parsed.error);
        query = parsed.query;
      } else {
        query = seabed::MustParseSql(op.sql);
      }
      query.has_udf = op.udf;
      ResultSet result = tracer != nullptr ? tracer->Run(query) : session.Execute(query);
      if (op.udf) {
        trend_sink += HourlyTrend(result);
      }
      const double seconds = SecondsSince(start);
      phase_seconds += seconds;
      latencies_ms.push_back(seconds * 1e3);

      // Reference check, off the clock.
      auto it = references.find(op.sql);
      if (it == references.end()) {
        const Table* right =
            query.join.has_value() ? setup.plain.at(query.join->right_table).get() : nullptr;
        it = references.emplace(op.sql, Reference(*setup.plain.at(query.table), query, right))
                 .first;
      }
      if (checker.Inject("answer")) {
        CorruptResult(result);
      }
      const std::string diff = CompareAnswer(result, it->second, query.group_by.size());
      checker.Expect(diff.empty(), "answer", op.sql + ": " + diff);
      if (setup.between && setup.between(phase_seconds / options.seconds)) {
        references.clear();
      }
    }
  }
  finishing_sink = trend_sink;
  if (!options.trace) {
    metrics.Set("queries_per_s", static_cast<double>(latencies_ms.size()) / phase_seconds, "1/s");
    metrics.Set("query_p50_ms", Percentile(latencies_ms, 50), "ms");
    metrics.Set("query_p95_ms", Percentile(latencies_ms, 95), "ms");
  }
  return out;
}

Appender::Appender(seabed::Session& session, std::string table, size_t initial_rows,
                   std::vector<std::shared_ptr<Table>> batches)
    : session_(session),
      table_(std::move(table)),
      expected_rows_(initial_rows),
      batches_(std::move(batches)) {}

bool Appender::Step(double phase_done) {
  const size_t n = batches_.size();
  const size_t first = next_;
  while (next_ < n && phase_done * static_cast<double>(n) >= static_cast<double>(next_) + 0.5) {
    const Table& batch = *batches_[next_++];
    const auto start = Clock::now();
    session_.Append(table_, batch);
    latencies_ms_.push_back(SecondsSince(start) * 1e3);
    expected_rows_ += batch.NumRows();
  }
  return next_ != first;
}

void Appender::Finish(Metrics& metrics, Checker& checker) {
  Step(1.0);
  metrics.Set("append_p50_ms", Percentile(latencies_ms_, 50), "ms");

  ResultSet count = session_.Execute(seabed::MustParseSql("SELECT COUNT(*) FROM " + table_));
  if (checker.Inject("append_count")) {
    CorruptResult(count);
  }
  const bool ok = count.rows.size() == 1 && count.rows[0].size() == 1 &&
                  count.rows[0][0] == Value{static_cast<int64_t>(expected_rows_)};
  checker.Expect(ok, "append_count",
                 table_ + " COUNT(*) after appends != " + std::to_string(expected_rows_));
}

void RecordStorage(const seabed::Session& session, const std::vector<std::string>& tables,
                   size_t plaintext_rows, Metrics& metrics) {
  size_t bytes = 0;
  for (const std::string& name : tables) {
    if (session.backend_kind() == seabed::BackendKind::kPlain) {
      bytes += seabed::SerializedTableSize(*session.attached(name).plain);
    } else {
      bytes += seabed::SerializedTableSize(*session.encrypted_database(name).table);
    }
  }
  metrics.Set("stored_bytes_per_row",
              static_cast<double>(bytes) / static_cast<double>(plaintext_rows), "B");
}

}  // namespace perfbench
