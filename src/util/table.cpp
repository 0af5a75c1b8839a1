#include "util/table.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/error.hpp"

namespace oxmlc {
namespace {

bool looks_numeric(const std::string& s) {
  if (s.empty()) return false;
  char* end = nullptr;
  std::strtod(s.c_str(), &end);
  // Treat as numeric if the prefix parses and the remainder is a short unit.
  return end != s.c_str();
}

std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += "\"";
  return out;
}

}  // namespace

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  OXMLC_CHECK(!header_.empty(), "table header must be non-empty");
}

void Table::add_row(std::vector<std::string> cells) {
  OXMLC_CHECK(cells.size() == header_.size(), "table row arity mismatch");
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto rule = [&] {
    os << '+';
    for (std::size_t c = 0; c < width.size(); ++c) {
      for (std::size_t i = 0; i < width[c] + 2; ++i) os << '-';
      os << '+';
    }
    os << '\n';
  };
  auto emit = [&](const std::vector<std::string>& cells) {
    os << '|';
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const bool right = looks_numeric(cells[c]);
      os << ' ' << (right ? std::right : std::left) << std::setw(static_cast<int>(width[c]))
         << cells[c] << ' ' << '|';
    }
    os << '\n';
  };
  rule();
  emit(header_);
  rule();
  for (const auto& row : rows_) emit(row);
  rule();
}

void Table::write_csv(std::ostream& os) const {
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c) os << ',';
      os << csv_escape(cells[c]);
    }
    os << '\n';
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
}

void Table::write_csv_file(const std::string& path) const {
  std::ofstream file(path);
  OXMLC_CHECK(file.good(), "cannot open CSV output file: " + path);
  write_csv(file);
}

std::string format_si(double value, const std::string& unit, int significant_digits) {
  struct Prefix {
    double scale;
    const char* name;
  };
  static constexpr Prefix kPrefixes[] = {
      {1e12, "T"}, {1e9, "G"}, {1e6, "M"}, {1e3, "k"}, {1.0, ""},
      {1e-3, "m"}, {1e-6, "u"}, {1e-9, "n"}, {1e-12, "p"}, {1e-15, "f"},
  };
  if (value == 0.0) return "0 " + unit;
  const double mag = std::fabs(value);
  const Prefix* chosen = &kPrefixes[sizeof(kPrefixes) / sizeof(kPrefixes[0]) - 1];
  for (const auto& p : kPrefixes) {
    if (mag >= p.scale) {
      chosen = &p;
      break;
    }
  }
  std::ostringstream os;
  os << std::setprecision(significant_digits) << value / chosen->scale << ' '
     << chosen->name << unit;
  return os.str();
}

std::string format_scaled(double value, double scale, int digits) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(digits) << value / scale;
  return os.str();
}

}  // namespace oxmlc
