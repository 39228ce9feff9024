// Structured experiment reports: every bench prints human-readable tables
// AND persists machine-readable CSV/JSON under bench_out/, so downstream
// plotting (the paper's box plots) needs no stdout scraping.
#pragma once

#include <string>
#include <variant>
#include <vector>

#include "metrics/stats.h"

namespace oasis::metrics {

/// A flat table of rows with heterogeneous (string | number) cells. Rows may
/// have different column sets; writers emit the union of columns.
class ExperimentReport {
 public:
  using Value = std::variant<std::string, real>;

  explicit ExperimentReport(std::string experiment);

  /// Sets a context column applied to every subsequently added row
  /// (e.g. dataset=ImageNet, B=8). Re-setting a key overwrites it.
  void set_context(const std::string& key, Value value);

  /// Starts a new row from the current context.
  void begin_row();
  /// Adds a cell to the current row (begin_row must have been called).
  void add(const std::string& key, Value value);
  /// Convenience: one row holding a label plus a full box-stats summary.
  void add_box_row(const std::string& label, const BoxStats& stats);

  [[nodiscard]] index_t rows() const { return rows_.size(); }
  [[nodiscard]] const std::string& experiment() const { return experiment_; }

  /// Writes RFC-4180-style CSV (quoted strings, '.'-decimal numbers).
  void write_csv(const std::string& path) const;
  /// Writes a JSON array of objects.
  void write_json(const std::string& path) const;

 private:
  using Cell = std::pair<std::string, Value>;
  using Row = std::vector<Cell>;

  std::string experiment_;
  Row context_;
  std::vector<Row> rows_;
};

}  // namespace oasis::metrics
