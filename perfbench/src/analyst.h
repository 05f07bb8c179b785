// The one-analyst closed loop shared by ad_dashboard and bdb_batch: one
// client issues SQL text to a single Session, waits for the answer, checks
// it against the plaintext reference, and issues the next query.
#ifndef PERFBENCH_ANALYST_H_
#define PERFBENCH_ANALYST_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "trace.h"

namespace perfbench {

struct ScriptOp {
  std::string sql;
  // Client post-processing (the query log's UDF-style finishing step): the
  // analyst fits an hourly trend to the decrypted rows before the next query.
  bool udf = false;
};

struct WorkloadResult {
  size_t attempted = 0;
  size_t failed = 0;
};

struct AnalystSetup {
  seabed::Session* session = nullptr;
  // Plaintext tables the references are computed from, by name.
  std::map<std::string, std::shared_ptr<Table>> plain;
  // Produces round r of the operation script. Every round is run whole.
  std::function<std::vector<ScriptOp>(size_t round)> round;
  // Optional; runs after each query, off the query clock, with the share of
  // the timed phase elapsed so far. Returns true when it changed a table,
  // which drops the cached reference answers.
  std::function<bool(double phase_done)> between;
};

// Runs whole rounds until `options.seconds` of timed phase have elapsed. The
// timed phase covers parse + execute + client post-processing of every
// query; reference checks run between queries with the clock stopped.
// Untraced runs record queries_per_s, query_p50_ms and query_p95_ms; traced
// runs route each query through ComposedTracer instead.
WorkloadResult RunAnalyst(const Options& options, const AnalystSetup& setup, Metrics& metrics,
                          LayerStats& layers, Checker& checker);

// Appends a fixed list of batches to one table through Session::Append and
// times each. Step spreads them evenly over the timed phase (batch k goes in
// once (k + 1/2) / n of it has elapsed), so append latency is sampled under
// the same host conditions as query latency rather than in one burst.
// Finish appends any batch still due, records append_p50_ms and checks the
// table's final COUNT(*).
class Appender {
 public:
  Appender(seabed::Session& session, std::string table, size_t initial_rows,
           std::vector<std::shared_ptr<Table>> batches);

  // Appends every batch due at `phase_done`; true when it appended any.
  bool Step(double phase_done);
  void Finish(Metrics& metrics, Checker& checker);
  size_t size() const { return batches_.size(); }

 private:
  seabed::Session& session_;
  std::string table_;
  size_t expected_rows_;
  std::vector<std::shared_ptr<Table>> batches_;
  size_t next_ = 0;
  std::vector<double> latencies_ms_;
};

// Splits `rows` into `n` equal consecutive batches (the last takes the rest).
std::vector<std::shared_ptr<Table>> SplitBatches(const Table& rows, size_t n);

// Fills stored_bytes_per_row from the encrypted tables of `tables`.
void RecordStorage(const seabed::Session& session, const std::vector<std::string>& tables,
                   size_t plaintext_rows, Metrics& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_ANALYST_H_
