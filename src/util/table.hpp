// Plain-text table printer used by the benchmark harnesses to emit
// paper-style tables (fixed column widths, right-aligned numerics).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace hupc::util {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Append one row; missing trailing cells render empty, extra cells throw.
  void add_row(std::vector<std::string> cells);

  /// Convenience: format doubles with the given precision.
  static std::string num(double v, int precision = 2);
  static std::string pct(double fraction, int precision = 1);

  void print(std::ostream& os) const;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace hupc::util
