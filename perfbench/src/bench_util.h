// Shared plumbing of the host-measured benchmark: command line, the metric
// record printed as the final JSON line, latency statistics, the correctness
// ledger (with its fault-injection hooks for the mutation tests), and the
// plaintext reference evaluator every answer is checked against.
//
// The benchmark never reads a modeled quantity: all timings come from its
// own steady_clock around calls into the library, or from QueryStats /
// ServiceStats fields that the library itself measures on the host (see
// README.md for the list).
#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/engine/table.h"
#include "src/query/query.h"
#include "src/seabed/session.h"

namespace perfbench {

using seabed::Query;
using seabed::ResultSet;
using seabed::Table;
using seabed::Value;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // "full" (the measured configuration) or "tiny" (the self-tests' smoke
  // size: same code paths, a few thousand rows).
  std::string scale = "full";
  // Runs the same mix on kPlain (NoEnc) for the README's reference figures.
  bool plain = false;
  // Mutation-test hook: corrupts one value feeding the named check.
  std::string fault;
};

// Parses argv; exits with a usage message on anything unexpected.
Options ParseOptions(int argc, char** argv);

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Nearest-rank percentile (p in [0, 100]) of an unsorted sample.
double Percentile(std::vector<double> values, double p);

// Peak resident set of this process in MB (VmHWM of /proc/self/status).
double PeakRssMb();

// Cluster model with every modeled cost zeroed: no job or task overhead, no
// client-link latency, and min(2, nproc) logical workers. Only host-measured
// work remains in what the library reports.
seabed::ClusterConfig MeasuredClusterConfig();

// Worker/thread budget: min(4, nproc).
size_t HostThreads();

// Name -> (value, unit), printed in insertion-independent (sorted) order.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  std::string ToJson() const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

// Correctness ledger. Every check reports here; the first few failures are
// printed to stderr. Thread-safe.
class Checker {
 public:
  explicit Checker(std::string fault) : fault_(std::move(fault)) {}

  void Expect(bool ok, const std::string& check, const std::string& detail);
  bool ok() const;

  // Fault injection: true exactly once, the first time `check` asks, when
  // --fault names it. The caller then corrupts one value it is about to
  // verify under that check.
  bool Inject(const std::string& check);

 private:
  mutable std::mutex mu_;
  std::string fault_;
  bool injected_ = false;
  size_t failures_ = 0;
};

// Plaintext reference answer, computed by the benchmark's own evaluator
// straight from the generated columns (never through the library's query
// layer). Supports the shapes the workloads issue: conjunctive int/string
// filters, an equi-join on a string key, GROUP BY int/string columns, and
// SUM/COUNT/AVG/MIN/MAX.
struct Answer {
  // Group values -> aggregate values, in the query's aggregate order.
  std::map<std::vector<Value>, std::vector<Value>> groups;
};

Answer Reference(const Table& fact, const Query& query, const Table* right);

// Order-insensitive comparison of a ResultSet against the reference:
// integers exactly, floating-point values to 1e-9 relative. Returns an empty
// string on a match, else a description of the first difference.
std::string CompareAnswer(const ResultSet& got, const Answer& want, size_t num_group_cols);

// Corrupts one aggregate value of `result` (the mutation tests' fault).
void CorruptResult(ResultSet& result);

// Renders `query` as the SQL text an analyst would type (parser-compatible).
std::string ToSql(const Query& query);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
