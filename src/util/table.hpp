// Tabular output for the benchmark harness: aligned text tables (what the
// bench binaries print to stdout, mirroring the paper's tables) and CSV files
// (machine-readable series for re-plotting the figures).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace oxmlc {

// A simple column-aligned table builder.
//
//   Table t({"IrefR (uA)", "RHRS (kOhm)"});
//   t.add_row({"6", "267"});
//   t.print(std::cout);
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  // Appends a row; must have the same arity as the header.
  void add_row(std::vector<std::string> cells);

  std::size_t row_count() const { return rows_.size(); }

  // Renders with box-drawing separators, right-aligned numeric-looking cells.
  void print(std::ostream& os) const;

  // Writes RFC-4180-ish CSV (quotes cells containing comma/quote/newline).
  void write_csv(std::ostream& os) const;
  void write_csv_file(const std::string& path) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Formats a double in engineering notation with an SI prefix, e.g.
// format_si(2.6e-6, "s") == "2.600 us"; format_si(152e3, "Ohm") == "152.0 kOhm".
std::string format_si(double value, const std::string& unit, int significant_digits = 4);

// Fixed formatting helper: value scaled by `scale` printed with `digits`
// decimals, e.g. format_scaled(1.52e5, 1e3, 1) == "152.0".
std::string format_scaled(double value, double scale, int digits);

}  // namespace oxmlc
