#include "metrics/report.h"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "common/error.h"

namespace oasis::metrics {
namespace {

std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string number_to_string(real v) {
  std::ostringstream os;
  os << std::setprecision(12) << v;
  return os.str();
}

}  // namespace

ExperimentReport::ExperimentReport(std::string experiment)
    : experiment_(std::move(experiment)) {}

void ExperimentReport::set_context(const std::string& key, Value value) {
  for (auto& cell : context_) {
    if (cell.first == key) {
      cell.second = std::move(value);
      return;
    }
  }
  context_.emplace_back(key, std::move(value));
}

void ExperimentReport::begin_row() { rows_.push_back(context_); }

void ExperimentReport::add(const std::string& key, Value value) {
  OASIS_CHECK_MSG(!rows_.empty(), "add() before begin_row()");
  rows_.back().emplace_back(key, std::move(value));
}

void ExperimentReport::add_box_row(const std::string& label,
                                   const BoxStats& stats) {
  begin_row();
  add("label", label);
  add("min", stats.min);
  add("q1", stats.q1);
  add("median", stats.median);
  add("q3", stats.q3);
  add("max", stats.max);
  add("mean", stats.mean);
  add("count", static_cast<real>(stats.count));
}

void ExperimentReport::write_csv(const std::string& path) const {
  // Column order: first-seen across all rows.
  std::vector<std::string> columns;
  for (const auto& row : rows_) {
    for (const auto& [key, value] : row) {
      if (std::find(columns.begin(), columns.end(), key) == columns.end()) {
        columns.push_back(key);
      }
    }
  }
  std::ofstream out(path);
  if (!out) throw Error("cannot open for writing: " + path);
  out << "experiment";
  for (const auto& c : columns) out << ',' << csv_escape(c);
  out << '\n';
  for (const auto& row : rows_) {
    out << csv_escape(experiment_);
    for (const auto& c : columns) {
      out << ',';
      const auto it =
          std::find_if(row.begin(), row.end(),
                       [&](const Cell& cell) { return cell.first == c; });
      if (it == row.end()) continue;
      if (const auto* s = std::get_if<std::string>(&it->second)) {
        out << csv_escape(*s);
      } else {
        out << number_to_string(std::get<real>(it->second));
      }
    }
    out << '\n';
  }
  if (!out) throw Error("write failed: " + path);
}

void ExperimentReport::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw Error("cannot open for writing: " + path);
  out << "[\n";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    out << "  {\"experiment\": \"" << json_escape(experiment_) << '"';
    for (const auto& [key, value] : rows_[r]) {
      out << ", \"" << json_escape(key) << "\": ";
      if (const auto* s = std::get_if<std::string>(&value)) {
        out << '"' << json_escape(*s) << '"';
      } else {
        out << number_to_string(std::get<real>(value));
      }
    }
    out << '}' << (r + 1 < rows_.size() ? "," : "") << '\n';
  }
  out << "]\n";
  if (!out) throw Error("write failed: " + path);
}

}  // namespace oasis::metrics
