#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <unordered_map>

#include "bench.h"
#include "common/json.h"
#include "datagen/paper_example.h"
#include "minerule/parser.h"

namespace perfbench {

using namespace minerule;

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

namespace {
// Keeps the reference task's results observable so none of it is elided.
volatile uint64_t reference_sink = 0;
}  // namespace

double ReferenceMs() {
  // Fixed inputs, the same in every run whatever the seed.
  static const std::vector<uint64_t> keys = [] {
    std::mt19937_64 rng(7);
    std::vector<uint64_t> k(300000);
    for (uint64_t& x : k) x = rng();
    return k;
  }();
  static const std::vector<std::string> names = [] {
    std::mt19937 rng(5);
    std::vector<std::string> v;
    for (int i = 0; i < 50000; ++i) {
      v.push_back("customer" + std::to_string(rng() % 20000) + "/item" +
                  std::to_string(rng() % 500));
    }
    return v;
  }();
  const Clock::time_point start = Clock::now();
  std::unordered_map<uint64_t, uint64_t> sums;
  for (uint64_t k : keys) sums[k % 100000] += k;
  uint64_t hits = 0;
  for (uint64_t k : keys) {
    auto it = sums.find(k % 150000);
    if (it != sums.end()) hits += it->second;
  }
  std::vector<uint64_t> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  std::unordered_map<std::string, int> counts;
  for (const std::string& name : names) ++counts[name];
  std::vector<std::string> sorted_names = names;
  std::sort(sorted_names.begin(), sorted_names.end());
  reference_sink = hits + sorted[1] + counts.size() + sorted_names[1].size();
  return MsBetween(start, Clock::now());
}

namespace {

class Fnv1a {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 1099511628211ull;
    }
  }
  template <typename T>
  void Pod(const T& value) {
    unsigned char raw[sizeof(T)];
    std::memcpy(raw, &value, sizeof(T));
    Bytes(raw, sizeof(T));
  }
  void Str(const std::string& s) {
    Pod(static_cast<uint64_t>(s.size()));
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

}  // namespace

uint64_t DigestResult(const sql::QueryResult& result) {
  Fnv1a h;
  h.Pod(static_cast<uint64_t>(result.schema.num_columns()));
  for (const Column& column : result.schema.columns()) {
    h.Str(column.name);
    h.Pod(static_cast<int>(column.type));
  }
  h.Pod(static_cast<uint64_t>(result.rows.size()));
  for (const Row& row : result.rows) {
    h.Pod(static_cast<uint64_t>(row.size()));
    for (const Value& value : row) {
      const DataType type = value.type();
      h.Pod(static_cast<int>(type));
      switch (type) {
        case DataType::kNull:
          break;
        case DataType::kBoolean:
          h.Pod(value.AsBoolean());
          break;
        case DataType::kInteger:
          h.Pod(value.AsInteger());
          break;
        case DataType::kDouble:
          h.Pod(value.AsDouble());  // exact bits
          break;
        case DataType::kString:
          h.Str(value.AsString());
          break;
        case DataType::kDate:
          h.Pod(value.AsDate());
          break;
      }
    }
  }
  return h.value();
}

std::vector<std::string> RuleTableReads(const std::string& out) {
  return {"SELECT * FROM " + out, "SELECT * FROM " + out + "_Bodies",
          "SELECT * FROM " + out + "_Heads",
          "SELECT HeadId, COUNT(*), MAX(CONFIDENCE) FROM " + out +
              " GROUP BY HeadId"};
}

Status CheckPaperExample() {
  Catalog catalog;
  MR_RETURN_IF_ERROR(datagen::MakePaperPurchaseTable(&catalog).status());
  mr::DataMiningSystem system(&catalog);
  MR_ASSIGN_OR_RETURN(mr::MineRuleStatement stmt,
                      mr::ParseMineRule(datagen::PaperExampleStatement()));
  MR_RETURN_IF_ERROR(system.ExecuteStatement(stmt).status());

  auto item_sets = [&](const std::string& table)
      -> Result<std::map<int64_t, std::vector<std::string>>> {
    MR_ASSIGN_OR_RETURN(sql::QueryResult rows,
                        system.ExecuteSql("SELECT * FROM " + table));
    std::map<int64_t, std::vector<std::string>> sets;
    for (const Row& row : rows.rows) {
      sets[row.at(0).AsInteger()].push_back(row.at(1).ToString());
    }
    for (auto& [id, items] : sets) std::sort(items.begin(), items.end());
    return sets;
  };
  auto join = [](const std::vector<std::string>& items) {
    std::string out = "{";
    for (size_t i = 0; i < items.size(); ++i) {
      out += (i ? "," : "") + items[i];
    }
    return out + "}";
  };
  MR_ASSIGN_OR_RETURN(auto bodies, item_sets(stmt.output_table + "_Bodies"));
  MR_ASSIGN_OR_RETURN(auto heads, item_sets(stmt.output_table + "_Heads"));
  MR_ASSIGN_OR_RETURN(sql::QueryResult rules,
                      system.ExecuteSql("SELECT BodyId, HeadId, SUPPORT, "
                                        "CONFIDENCE FROM " +
                                        stmt.output_table));
  std::map<std::string, std::pair<double, double>> got;
  for (const Row& row : rules.rows) {
    got[join(bodies[row.at(0).AsInteger()]) + " => " +
        join(heads[row.at(1).AsInteger()])] = {row.at(2).AsDouble(),
                                               row.at(3).AsDouble()};
  }
  // Figure 2.b of the paper.
  const std::map<std::string, std::pair<double, double>> expected = {
      {"{brown_boots} => {col_shirts}", {0.5, 1.0}},
      {"{jackets} => {col_shirts}", {0.5, 0.5}},
      {"{brown_boots,jackets} => {col_shirts}", {0.5, 1.0}}};
  if (got != expected) {
    std::string seen;
    for (const auto& [rule, sc] : got) seen += " " + rule;
    return Status::Internal("Figure 2.b mismatch; mined:" + seen);
  }
  return Status::OK();
}

int SpanLog::Begin(std::string name, int parent, int64_t statement) {
  spans_.push_back({std::move(name), parent, statement, Clock::now(), {}});
  return static_cast<int>(spans_.size()) - 1;
}

double SpanLog::End(int index) {
  Span& span = spans_[index];
  span.end = Clock::now();
  return MsBetween(span.start, span.end);
}

std::string SpanLog::ChromeTraceJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents").BeginArray();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    w.BeginObject();
    w.Key("name").String(span.name);
    w.Key("ph").String("X");
    w.Key("pid").Int(1);
    w.Key("tid").Int(1);
    w.Key("ts").Double(
        std::chrono::duration<double, std::micro>(span.start - origin_)
            .count());
    w.Key("dur").Double(
        std::chrono::duration<double, std::micro>(span.end - span.start)
            .count());
    w.Key("args").BeginObject();
    w.Key("statement").Int(span.statement);
    w.Key("span").Int(static_cast<int64_t>(i));
    w.Key("parent").Int(span.parent);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace perfbench
