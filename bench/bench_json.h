#pragma once
// Machine-readable bench output.  Each bench binary builds one BenchJson,
// adds scalar fields plus a flat array of result records, and writes
// BENCH_<name>.json into the working directory so CI and scripts can track
// kernel/throughput numbers without scraping the text tables.

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "base/json_escape.h"

namespace yoso {

class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  /// A key/value on the top-level object.
  void field(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, json_quote(value));
  }
  void field(const std::string& key, double value) {
    fields_.emplace_back(key, number(value));
  }

  /// Starts a new record in the "results" array; subsequent value() calls
  /// fill it until the next record().
  void record(const std::string& label) {
    records_.emplace_back();
    records_.back().emplace_back("label", json_quote(label));
  }
  void value(const std::string& key, double v) {
    records_.back().emplace_back(key, number(v));
  }
  void value(const std::string& key, const std::string& v) {
    records_.back().emplace_back(key, json_quote(v));
  }

  /// Writes BENCH_<name>.json; returns the path (empty on failure).
  std::string write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::ofstream out(path);
    if (!out) return "";
    out << "{\n  \"bench\": " << json_quote(name_);
    for (const auto& [k, v] : fields_) out << ",\n  " << json_quote(k) << ": " << v;
    out << ",\n  \"results\": [";
    for (std::size_t r = 0; r < records_.size(); ++r) {
      out << (r == 0 ? "\n" : ",\n") << "    {";
      for (std::size_t i = 0; i < records_[r].size(); ++i)
        out << (i == 0 ? "" : ", ") << json_quote(records_[r][i].first) << ": "
            << records_[r][i].second;
      out << "}";
    }
    out << "\n  ]\n}\n";
    return out ? path : "";
  }

 private:
  static std::string number(double v) {
    std::ostringstream ss;
    ss.precision(10);
    ss << v;
    return ss.str();
  }

  using Pairs = std::vector<std::pair<std::string, std::string>>;
  std::string name_;
  Pairs fields_;
  std::vector<Pairs> records_;
};

}  // namespace yoso
