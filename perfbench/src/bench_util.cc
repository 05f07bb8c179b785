#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

namespace perfbench {

namespace {

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "seabed_perfbench: " << why << "\n"
            << "usage: seabed_perfbench --workload ad_dashboard|bdb_batch|serve_ingest"
               " --seed N --seconds S --trace 0|1 [--scale full|tiny] [--plain]"
               " [--fault CHECK]\n";
  std::exit(2);
}

}  // namespace

Options ParseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage("missing value for " + arg);
      }
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        o.workload = value();
      } else if (arg == "--seed") {
        o.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value());
      } else if (arg == "--trace") {
        o.trace = value() != "0";
      } else if (arg == "--scale") {
        o.scale = value();
      } else if (arg == "--plain") {
        o.plain = true;
      } else if (arg == "--fault") {
        o.fault = value();
      } else {
        Usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + arg);
    }
  }
  if (o.workload.empty()) {
    Usage("--workload is required");
  }
  if (o.scale != "full" && o.scale != "tiny") {
    Usage("--scale must be full or tiny");
  }
  if (!(o.seconds > 0)) {
    Usage("--seconds must be positive");
  }
  return o;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

size_t HostThreads() {
  return std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
}

seabed::ClusterConfig MeasuredClusterConfig() {
  seabed::ClusterConfig config;
  // Two scan workers, not one per core: on a shared host a query split over
  // every core waits for its slowest task. On bdb_batch, five seeds each,
  // four workers ran no faster than two (about 17 queries/s) and spread
  // more from run to run (README.md, Steadiness).
  config.num_workers = std::min<size_t>(2, HostThreads());
  config.job_overhead_seconds = 0;
  config.task_overhead_seconds = 0;
  config.client_link.latency_seconds = 0;
  return config;
}

void Metrics::Set(const std::string& name, double value, const std::string& unit) {
  values_[name] = {value, unit};
}

std::string Metrics::ToJson() const {
  std::ostringstream out;
  out.precision(17);
  out << "{";
  bool first = true;
  for (const auto& [name, entry] : values_) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << (std::isfinite(entry.first) ? entry.first : 0.0) << ", \"unit\": \"" << entry.second
        << "\"}";
    first = false;
  }
  out << "}";
  return out.str();
}

void Checker::Expect(bool ok, const std::string& check, const std::string& detail) {
  if (ok) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (++failures_ <= 10) {
    std::cerr << "CHECK FAILED [" << check << "]: " << detail << "\n";
  }
}

bool Checker::ok() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_ == 0;
}

bool Checker::Inject(const std::string& check) {
  std::lock_guard<std::mutex> lock(mu_);
  if (injected_ || fault_ != check) {
    return false;
  }
  injected_ = true;
  return true;
}

// --- reference evaluator ------------------------------------------------------

namespace {

constexpr const char kRight[] = "right:";

struct ColRef {
  const seabed::Column* col = nullptr;
  bool right = false;
  bool is_int = false;
};

ColRef Resolve(const std::string& name, const Table& fact, const Table* right) {
  ColRef ref;
  std::string column = name;
  const Table* table = &fact;
  if (name.rfind(kRight, 0) == 0) {
    column = name.substr(sizeof(kRight) - 1);
    table = right;
    ref.right = true;
  }
  ref.col = table->GetColumn(column).get();
  ref.is_int = ref.col->type() == seabed::ColumnType::kInt64;
  return ref;
}

Value Cell(const ColRef& ref, size_t row) {
  if (ref.is_int) {
    return static_cast<const seabed::Int64Column*>(ref.col)->Get(row);
  }
  return static_cast<const seabed::StringColumn*>(ref.col)->Get(row);
}

int64_t IntCell(const ColRef& ref, size_t row) {
  return static_cast<const seabed::Int64Column*>(ref.col)->Get(row);
}

struct Acc {
  int64_t sum = 0;
  int64_t count = 0;
  int64_t min = 0;
  int64_t max = 0;
};

}  // namespace

Answer Reference(const Table& fact, const Query& query, const Table* right) {
  std::vector<ColRef> filters;
  for (const auto& p : query.filters) {
    filters.push_back(Resolve(p.column, fact, right));
  }
  std::vector<ColRef> groups;
  for (const auto& g : query.group_by) {
    groups.push_back(Resolve(g, fact, right));
  }
  std::vector<ColRef> aggs;
  for (const auto& a : query.aggregates) {
    aggs.push_back(a.column.empty() ? ColRef{} : Resolve(a.column, fact, right));
  }

  // Join index: right-table rows by their (string or int) key rendering.
  std::map<std::string, std::vector<size_t>> join_index;
  ColRef left_key;
  if (query.join.has_value()) {
    const ColRef rkey = Resolve(query.join->right_column, fact, right);
    for (size_t r = 0; r < right->NumRows(); ++r) {
      join_index[seabed::ValueToString(Cell(rkey, r))].push_back(r);
    }
    left_key = Resolve(query.join->left_column, fact, right);
  }

  std::map<std::vector<Value>, std::vector<Acc>> state;
  auto visit = [&](size_t frow, size_t rrow) {
    for (size_t f = 0; f < filters.size(); ++f) {
      const size_t row = filters[f].right ? rrow : frow;
      const auto& pred = query.filters[f];
      int order;
      if (filters[f].is_int) {
        const int64_t v = IntCell(filters[f], row);
        const int64_t w = std::get<int64_t>(pred.operand);
        order = v < w ? -1 : (v > w ? 1 : 0);
      } else {
        order = static_cast<const seabed::StringColumn*>(filters[f].col)
                    ->Get(row)
                    .compare(std::get<std::string>(pred.operand));
      }
      if (!seabed::CmpOpMatchesOrder(pred.op, order)) {
        return;
      }
    }
    std::vector<Value> key;
    for (const ColRef& g : groups) {
      key.push_back(Cell(g, g.right ? rrow : frow));
    }
    auto [it, fresh] = state.try_emplace(std::move(key), aggs.size());
    for (size_t a = 0; a < aggs.size(); ++a) {
      Acc& acc = it->second[a];
      const int64_t v = aggs[a].col == nullptr ? 0 : IntCell(aggs[a], aggs[a].right ? rrow : frow);
      if (acc.count == 0) {
        acc.min = acc.max = v;
      }
      acc.sum += v;
      acc.count += 1;
      acc.min = std::min(acc.min, v);
      acc.max = std::max(acc.max, v);
    }
  };
  // Table::NumRows checks every column; once per query, not per row.
  const size_t fact_rows = fact.NumRows();
  for (size_t row = 0; row < fact_rows; ++row) {
    if (query.join.has_value()) {
      const auto it = join_index.find(seabed::ValueToString(Cell(left_key, row)));
      if (it != join_index.end()) {
        for (const size_t r : it->second) {
          visit(row, r);
        }
      }
    } else {
      visit(row, 0);
    }
  }
  if (state.empty() && query.group_by.empty()) {
    state.try_emplace({}, aggs.size());  // SQL: a global aggregate yields one row
  }

  Answer answer;
  for (const auto& [key, accs] : state) {
    std::vector<Value> out;
    for (size_t a = 0; a < accs.size(); ++a) {
      const Acc& acc = accs[a];
      switch (query.aggregates[a].func) {
        case seabed::AggFunc::kSum:
          out.emplace_back(acc.sum);
          break;
        case seabed::AggFunc::kCount:
          out.emplace_back(acc.count);
          break;
        case seabed::AggFunc::kAvg:
          out.emplace_back(acc.count == 0 ? 0.0
                                          : static_cast<double>(acc.sum) /
                                                static_cast<double>(acc.count));
          break;
        case seabed::AggFunc::kMin:
          out.emplace_back(acc.min);
          break;
        case seabed::AggFunc::kMax:
          out.emplace_back(acc.max);
          break;
        default:
          std::cerr << "reference evaluator: unsupported aggregate\n";
          std::exit(3);
      }
    }
    answer.groups.emplace(key, std::move(out));
  }
  return answer;
}

namespace {

bool SameValue(const Value& a, const Value& b) {
  const bool a_num = !std::holds_alternative<std::string>(a);
  const bool b_num = !std::holds_alternative<std::string>(b);
  if (a_num != b_num) {
    return false;
  }
  if (!a_num) {
    return a == b;
  }
  if (std::holds_alternative<int64_t>(a) && std::holds_alternative<int64_t>(b)) {
    return a == b;
  }
  auto as_double = [](const Value& v) {
    return std::holds_alternative<int64_t>(v) ? static_cast<double>(std::get<int64_t>(v))
                                              : std::get<double>(v);
  };
  const double x = as_double(a);
  const double y = as_double(b);
  return std::fabs(x - y) <= 1e-9 * std::max({1.0, std::fabs(x), std::fabs(y)});
}

std::string Render(const std::vector<Value>& values) {
  std::string out = "(";
  for (size_t i = 0; i < values.size(); ++i) {
    out += (i ? ", " : "") + seabed::ValueToString(values[i]);
  }
  return out + ")";
}

}  // namespace

std::string CompareAnswer(const ResultSet& got, const Answer& want, size_t num_group_cols) {
  if (got.rows.size() != want.groups.size()) {
    return "row count " + std::to_string(got.rows.size()) + " != reference " +
           std::to_string(want.groups.size());
  }
  for (const auto& row : got.rows) {
    if (row.size() < num_group_cols) {
      return "short row " + Render(row);
    }
    const std::vector<Value> key(row.begin(), row.begin() + num_group_cols);
    const auto it = want.groups.find(key);
    if (it == want.groups.end()) {
      return "unexpected group " + Render(key);
    }
    const std::vector<Value> aggs(row.begin() + num_group_cols, row.end());
    if (aggs.size() != it->second.size()) {
      return "aggregate count mismatch in group " + Render(key);
    }
    for (size_t a = 0; a < aggs.size(); ++a) {
      if (!SameValue(aggs[a], it->second[a])) {
        return "group " + Render(key) + " got " + Render(aggs) + " want " + Render(it->second);
      }
    }
  }
  return "";
}

void CorruptResult(ResultSet& result) {
  if (result.rows.empty() || result.rows[0].empty()) {
    result.rows.push_back({Value{int64_t{-1}}});
    return;
  }
  Value& v = result.rows[0].back();
  if (auto* i = std::get_if<int64_t>(&v)) {
    *i += 1;
  } else if (auto* d = std::get_if<double>(&v)) {
    *d += 1.0;
  } else {
    std::get<std::string>(v) += "#";
  }
}

std::string ToSql(const Query& query) {
  auto ref = [&](const std::string& column) {
    if (column.rfind(kRight, 0) == 0) {
      return query.join->right_table + "." + column.substr(sizeof(kRight) - 1);
    }
    return column;
  };
  std::ostringstream sql;
  sql << "SELECT ";
  for (size_t g = 0; g < query.group_by.size(); ++g) {
    sql << ref(query.group_by[g]) << ", ";
  }
  for (size_t a = 0; a < query.aggregates.size(); ++a) {
    const auto& agg = query.aggregates[a];
    sql << (a ? ", " : "") << seabed::AggFuncName(agg.func) << "("
        << (agg.column.empty() ? "*" : ref(agg.column)) << ")";
    if (!agg.alias.empty()) {
      sql << " AS " << agg.alias;
    }
  }
  sql << " FROM " << query.table;
  if (query.join.has_value()) {
    sql << " JOIN " << query.join->right_table << " ON " << ref(query.join->left_column) << " = "
        << ref(query.join->right_column);
  }
  static const char* kOps[] = {"=", "!=", "<", "<=", ">", ">="};
  for (size_t f = 0; f < query.filters.size(); ++f) {
    const auto& p = query.filters[f];
    sql << (f ? " AND " : " WHERE ") << ref(p.column) << " " << kOps[static_cast<int>(p.op)]
        << " ";
    if (p.param >= 0) {
      sql << "?";
    } else if (const auto* s = std::get_if<std::string>(&p.operand)) {
      sql << "'" << *s << "'";
    } else {
      sql << std::get<int64_t>(p.operand);
    }
  }
  for (size_t g = 0; g < query.group_by.size(); ++g) {
    sql << (g ? ", " : " GROUP BY ") << ref(query.group_by[g]);
  }
  return sql.str();
}

}  // namespace perfbench
