// MLC level allocation (paper §4.1, Table 2).
//
// Given the programming-current window [i_min, i_max] = [6 uA, 36 uA] and the
// level count, two allocation schemes are supported (after Xu et al. [5]):
//   ISO-dI: reference currents linearly spaced (the paper's choice — the
//           write-termination scheme controls current, so equal current steps
//           are what the bandgap DAC naturally produces), and
//   ISO-dR: resistances linearly spaced (requires the R(IrefR) calibration
//           curve to invert the mapping).
//
// Level indexing: level value v in [0, 2^bits) is the binary content of the
// cell; v = 0 ('0000') is the shallowest HRS (highest current, 36 uA) and
// v = 2^bits - 1 ('1111') the deepest (6 uA), exactly as in Table 2. (The
// published table contains an obvious typo — '1011' is listed twice — which
// we resolve to the monotone sequence.)
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace oxmlc::mlc {

struct Level {
  std::size_t value = 0;      // binary content
  double iref = 0.0;          // termination reference current (A)
  double r_nominal = 0.0;     // nominal post-program resistance (Ohm); filled
                              // from the calibration curve when available
};

// Monotone R(IrefR) calibration curve measured on the nominal cell; linear
// interpolation in log-log space between sweep points.
class CalibrationCurve {
 public:
  CalibrationCurve() = default;
  // Points must be sorted by ascending current; resistance strictly
  // decreasing with current.
  CalibrationCurve(std::vector<double> iref, std::vector<double> resistance);

  double resistance_at(double iref) const;
  double iref_for_resistance(double r) const;

  bool empty() const { return iref_.empty(); }
  const std::vector<double>& irefs() const { return iref_; }
  const std::vector<double>& resistances() const { return resistance_; }

 private:
  std::vector<double> iref_;
  std::vector<double> resistance_;
};

struct LevelAllocation {
  std::size_t bits = 4;
  std::vector<Level> levels;  // indexed by value; levels[v].value == v

  std::size_t count() const { return levels.size(); }

  // Bit-pattern string of a value, MSB first ("1111" for 15 at 4 bits).
  std::string pattern(std::size_t value) const;

  // ISO-dI allocation over [i_min, i_max]; r_nominal filled from `curve` when
  // provided (pass empty curve to defer).
  static LevelAllocation iso_delta_i(std::size_t bits, double i_min, double i_max,
                                     const CalibrationCurve& curve = {});

  // ISO-dR allocation over [r_min, r_max]; requires a calibration curve.
  static LevelAllocation iso_delta_r(std::size_t bits, double r_min, double r_max,
                                     const CalibrationCurve& curve);
};

// The paper's Table 2 (4 bits/cell): IrefR in A, RHRS in Ohm, by level value.
struct PaperTable2Entry {
  std::size_t value;
  double iref;
  double r_hrs;
};
const std::vector<PaperTable2Entry>& paper_table2();

// Paper constants of the MLC window.
inline constexpr double kPaperIrefMin = 6e-6;
inline constexpr double kPaperIrefMax = 36e-6;

}  // namespace oxmlc::mlc
