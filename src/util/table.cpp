#include "util/table.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <stdexcept>

namespace hupc::util {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() > headers_.size()) {
    throw std::invalid_argument("Table::add_row: more cells than headers");
  }
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string Table::pct(double fraction, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f%%", precision, fraction * 100.0);
  return buf;
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto line = [&] {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      os << '+' << std::string(width[c] + 2, '-');
    }
    os << "+\n";
  };
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = cells[c];
      os << "| " << cell << std::string(width[c] - cell.size() + 1, ' ');
    }
    os << "|\n";
  };
  line();
  emit(headers_);
  line();
  for (const auto& row : rows_) emit(row);
  line();
}

}  // namespace hupc::util
