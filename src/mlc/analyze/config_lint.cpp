#include "mlc/analyze/config_lint.hpp"

#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "mlc/levels.hpp"
#include "mlc/program.hpp"
#include "mlc/retention.hpp"
#include "util/error.hpp"
#include "util/parse.hpp"

namespace oxmlc::mlc::analyze {
namespace {

using spice::analyze::Diagnostic;
using spice::analyze::DiagnosticReport;
using spice::analyze::Severity;
namespace codes = spice::analyze::codes;

// A verify pass only filters the relaxation tail if the fast component has
// expressed at least this fraction of its amplitude by the re-sense.
constexpr double kFastExpressedFraction = 0.9;
// ... and only stays uncontaminated while the slow retention component has
// expressed no more than this fraction during the wait.
constexpr double kSlowContaminationFraction = 0.01;
// Boundary slack for the window/compliance comparisons (exact i_max hits are
// legitimate placements, not violations).
constexpr double kRelTol = 1e-6;
// Count fields other than bits= stay exact in a double up to 2^53.
constexpr std::uint64_t kMaxCount = std::uint64_t{1} << 53;

[[noreturn]] void fail(std::size_t line_no, const std::string& message) {
  throw util::ParseError("mlc config", line_no, message);
}

// Real fields: a finite number with an optional SI suffix and unit word.
double number(const std::string& key, const std::string& token, std::size_t line_no) {
  const std::optional<double> value = util::parse_si(token);
  if (!value) fail(line_no, key + " expects a finite number, got '" + token + "'");
  return *value;
}

// Count fields (bits=, .level value=, .verify max_passes=): a finite integer
// in [lo, hi], or the line-numbered parse error. Casting anything else to
// std::size_t would be undefined.
std::size_t parse_count(const std::string& key, const std::string& token,
                        std::size_t line_no, std::uint64_t lo, std::uint64_t hi) {
  const std::optional<double> value = util::parse_si(token);
  if (!value || *value < static_cast<double>(lo) || *value > static_cast<double>(hi) ||
      *value != std::floor(*value)) {
    fail(line_no, key + " expects an integer in [" + std::to_string(lo) + ", " +
                      std::to_string(hi) + "], got '" + token + "'");
  }
  return static_cast<std::size_t>(*value);
}

// Flag fields (.drift enabled=, .verify enabled=): 0 or 1.
bool flag(const std::string& key, const std::string& token, std::size_t line_no) {
  const double value = number(key, token, line_no);
  if (value != 0.0 && value != 1.0) {
    fail(line_no, key + " expects 0 or 1, got '" + token + "'");
  }
  return value == 1.0;
}

// Splits a directive's "key=value" tokens and fails with the line number on
// anything else, a key given twice included.
std::vector<std::pair<std::string, std::string>> key_values(
    const std::vector<std::string>& tokens, std::size_t line_no) {
  std::vector<std::pair<std::string, std::string>> pairs;
  for (const std::string& token : tokens) {
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= token.size()) {
      fail(line_no, "expected key=value, got '" + token + "'");
    }
    std::string key = token.substr(0, eq);
    for (const auto& seen : pairs) {
      if (seen.first == key) fail(line_no, "key '" + key + "' given twice");
    }
    pairs.emplace_back(std::move(key), token.substr(eq + 1));
  }
  return pairs;
}

[[noreturn]] void unknown_key(const std::string& directive, const std::string& key,
                              std::size_t line_no) {
  fail(line_no, "unknown " + directive + " key '" + key + "'");
}

Diagnostic make_diagnostic(Severity severity, const char* code, std::string device,
                           std::string message, std::string fix_hint) {
  Diagnostic d;
  d.severity = severity;
  d.code = code;
  d.device = std::move(device);
  d.message = std::move(message);
  d.fix_hint = std::move(fix_hint);
  return d;
}

std::string level_name(const Level& level) {
  return "level" + std::to_string(level.value);
}

std::string format_kohm(double r) {
  std::ostringstream os;
  os.precision(4);
  os << r * 1e-3 << " kOhm";
  return os.str();
}

std::string format_ua(double i) {
  std::ostringstream os;
  os.precision(4);
  os << i * 1e6 << " uA";
  return os.str();
}

}  // namespace

MlcLintInput MlcLintInput::paper_default(std::size_t bits) {
  MlcLintInput input;
  input.bits = bits;
  input.i_min = kPaperIrefMin;
  input.i_max = kPaperIrefMax;
  input.levels = QlcConfig::paper_default(bits).allocation.levels;
  // The retention sweep's verify, whose passes the lint counts.
  input.verify_enabled = true;
  input.verify_max_passes = RetentionConfig{}.verify_max_passes;
  return input;
}

MlcLintInput parse_mlc_config(const std::string& text) {
  MlcLintInput input;
  input.levels.clear();
  bool bits_seen = false;
  std::map<std::string, std::size_t> first_line;  // of each one-line directive

  std::istringstream stream(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    std::istringstream tokens(line);
    std::string directive;
    if (!(tokens >> directive)) continue;  // blank line
    if (directive[0] == '*' || directive[0] == '#') continue;

    std::vector<std::string> rest;
    for (std::string token; tokens >> token;) rest.push_back(token);

    // .level and .nolint add to lists; a second line of any other directive
    // would merge into the first's fields, so it is an error.
    if (directive != ".level" && directive != ".nolint") {
      const auto [first, inserted] = first_line.emplace(directive, line_no);
      if (!inserted) {
        fail(line_no, directive + " given twice (first on line " +
                          std::to_string(first->second) + ")");
      }
    }

    if (directive == ".nolint") {
      for (const std::string& code : rest) input.suppressed.push_back(code);
      continue;
    }
    if (directive == ".mlc") {
      for (const auto& [key, value] : key_values(rest, line_no)) {
        if (key == "bits") {
          // The range LevelAllocation accepts.
          input.bits = parse_count(key, value, line_no, 1, 8);
          bits_seen = true;
        } else {
          unknown_key(".mlc", key, line_no);
        }
      }
      continue;
    }
    if (directive == ".window") {
      for (const auto& [key, value] : key_values(rest, line_no)) {
        if (key == "imin") input.i_min = number(key, value, line_no);
        else if (key == "imax") input.i_max = number(key, value, line_no);
        else if (key == "icomp") input.i_compliance = number(key, value, line_no);
        else if (key == "rfloor") input.r_floor = number(key, value, line_no);
        else unknown_key(".window", key, line_no);
      }
      continue;
    }
    if (directive == ".spread") {
      for (const auto& [key, value] : key_values(rest, line_no)) {
        if (key == "sigma_r") input.sigma_r = number(key, value, line_no);
        else if (key == "nsigma") input.n_sigma = number(key, value, line_no);
        else if (key == "coverage_z") input.relax_coverage_z = number(key, value, line_no);
        else unknown_key(".spread", key, line_no);
      }
      continue;
    }
    if (directive == ".level") {
      Level level;
      bool value_seen = false;
      for (const auto& [key, value] : key_values(rest, line_no)) {
        if (key == "value") {
          level.value = parse_count(key, value, line_no, 0, kMaxCount);
          value_seen = true;
        } else if (key == "iref") {
          level.iref = number(key, value, line_no);
        } else if (key == "r") {
          level.r_nominal = number(key, value, line_no);
        } else {
          unknown_key(".level", key, line_no);
        }
      }
      if (!value_seen) fail(line_no, ".level needs value=");
      input.levels.push_back(level);
      continue;
    }
    if (directive == ".drift") {
      for (const auto& [key, value] : key_values(rest, line_no)) {
        if (key == "enabled") {
          input.drift.enabled = flag(key, value, line_no);
          continue;
        }
        const double v = number(key, value, line_no);
        if (key == "tau_fast") input.drift.tau_fast = v;
        else if (key == "nu_fast") input.drift.nu_fast = v;
        else if (key == "relax_fraction") input.drift.relax_fraction = v;
        else if (key == "sigma_relax") input.drift.sigma_relax = v;
        else if (key == "tau_slow") input.drift.tau_slow = v;
        else if (key == "nu_slow") input.drift.nu_slow = v;
        else if (key == "drift_fraction") input.drift.drift_fraction = v;
        else if (key == "sigma_drift_rel") input.drift.sigma_drift_rel = v;
        else if (key == "ea") input.drift.ea_retention = v;
        else if (key == "t_ref") input.drift.t_reference = v;
        else if (key == "t_oper") input.drift.t_operating = v;
        else unknown_key(".drift", key, line_no);
      }
      continue;
    }
    if (directive == ".verify") {
      input.verify_enabled = true;
      for (const auto& [key, value] : key_values(rest, line_no)) {
        if (key == "enabled") input.verify_enabled = flag(key, value, line_no);
        else if (key == "tau_relax") input.tau_relax = number(key, value, line_no);
        else if (key == "max_passes") {
          input.verify_max_passes = parse_count(key, value, line_no, 0, kMaxCount);
        } else {
          unknown_key(".verify", key, line_no);
        }
      }
      continue;
    }
    fail(line_no, "unknown directive '" + directive + "'");
  }

  if (input.levels.empty()) {
    throw InvalidArgumentError("mlc config: no .level cards");
  }
  if (!bits_seen) {
    throw InvalidArgumentError("mlc config: missing .mlc bits= directive");
  }
  return input;
}

double relaxation_widened_low_edge(const MlcLintInput& input, double r) {
  if (!input.drift.enabled || r <= input.r_floor) return r;
  const double a_q = input.drift.relax_fraction *
                     std::exp(input.drift.sigma_relax * input.relax_coverage_z);
  const double exponent = std::max(1.0 - a_q, 0.0);
  return input.r_floor * std::pow(r / input.r_floor, exponent);
}

double relaxation_horizon(const oxram::DriftParams& drift) {
  constexpr double kCoverage = 0.99;
  return drift.tau_fast * (std::pow(1.0 - kCoverage, -1.0 / drift.nu_fast) - 1.0);
}

DiagnosticReport lint_mlc_config(const MlcLintInput& input) {
  DiagnosticReport report;
  const std::size_t expected = static_cast<std::size_t>(1) << input.bits;

  if (input.levels.size() != expected) {
    report.add(make_diagnostic(
        Severity::kWarning, codes::kLevelCountMismatch, "",
        "allocation has " + std::to_string(input.levels.size()) + " levels but .mlc bits=" +
            std::to_string(input.bits) + " implies " + std::to_string(expected),
        "add the missing .level cards or correct bits="));
  }

  // OXC004: every level's reference must be inside the programming window and
  // below the access-device compliance, or the comparator can never fire.
  for (const Level& level : input.levels) {
    if (level.iref <= 0.0 || level.iref < input.i_min * (1.0 - kRelTol) ||
        level.iref > input.i_max * (1.0 + kRelTol)) {
      report.add(make_diagnostic(
          Severity::kError, codes::kLevelUnreachable, level_name(level),
          "iref " + format_ua(level.iref) + " outside the programming window [" +
              format_ua(input.i_min) + ", " + format_ua(input.i_max) + "]",
          "move the level into the calibrated window or widen .window"));
    } else if (level.iref > input.i_compliance * (1.0 + kRelTol)) {
      report.add(make_diagnostic(
          Severity::kError, codes::kLevelUnreachable, level_name(level),
          "iref " + format_ua(level.iref) + " exceeds the compliance limit " +
              format_ua(input.i_compliance) + " — the cell current is capped below the "
              "reference, so the termination comparator never fires",
          "lower the level's iref or raise .window icomp="));
    }
  }

  // Ordering: iref strictly decreasing and (when known) R strictly increasing
  // with level value. Equal nominal resistances are a zero-width band
  // (OXC002); actual inversions are OXC001 and make band geometry
  // meaningless, so the band checks are skipped after one.
  bool inverted = false;
  std::vector<bool> zero_width(input.levels.empty() ? 0 : input.levels.size() - 1, false);
  const bool have_r = [&] {
    for (const Level& level : input.levels) {
      if (level.r_nominal <= 0.0) return false;
    }
    return true;
  }();
  for (std::size_t k = 0; k + 1 < input.levels.size(); ++k) {
    const Level& lo = input.levels[k];
    const Level& hi = input.levels[k + 1];
    if (hi.iref >= lo.iref) {
      inverted = true;
      report.add(make_diagnostic(
          Severity::kError, codes::kLevelsInverted, level_name(hi),
          "iref must strictly decrease with level value, but " + level_name(hi) + " (" +
              format_ua(hi.iref) + ") >= " + level_name(lo) + " (" + format_ua(lo.iref) + ")",
          "deeper levels terminate at lower currents — reorder the references"));
    }
    if (!have_r) continue;
    const double rel_gap = (hi.r_nominal - lo.r_nominal) / lo.r_nominal;
    if (std::abs(rel_gap) <= kRelTol) {
      zero_width[k] = true;
      report.add(make_diagnostic(
          Severity::kError, codes::kZeroWidthBand, level_name(hi),
          level_name(lo) + " and " + level_name(hi) + " share the nominal resistance " +
              format_kohm(hi.r_nominal) + " — the decode threshold between them collapses",
          "give every level a distinct nominal resistance"));
    } else if (rel_gap < 0.0) {
      inverted = true;
      report.add(make_diagnostic(
          Severity::kError, codes::kLevelsInverted, level_name(hi),
          "nominal resistance must strictly increase with level value, but " +
              level_name(hi) + " (" + format_kohm(hi.r_nominal) + ") < " + level_name(lo) +
              " (" + format_kohm(lo.r_nominal) + ")",
          "deeper levels are higher-resistive — reorder the placement"));
    }
  }

  // An effective verify (enabled, at least two passes, re-sense after the
  // fast component expressed) re-terminates the relaxation tail, so the
  // static widening is dropped; anything less leaves the full quantile in
  // play. The last pass only senses (DriftingWord::relax_verify), so a single
  // pass re-terminates nothing.
  const double phi_fast = oxram::drift_phi(input.tau_relax, input.drift.tau_fast,
                                           input.drift.nu_fast);
  const bool verify_effective = input.verify_enabled && input.verify_max_passes >= 2 &&
                                input.drift.enabled && phi_fast >= kFastExpressedFraction;

  // OXC003: adjacent bands, low edges relaxation-widened unless verified.
  if (have_r && !inverted) {
    const double spread = input.n_sigma * input.sigma_r;
    for (std::size_t k = 0; k + 1 < input.levels.size(); ++k) {
      if (zero_width[k]) continue;
      const Level& lo = input.levels[k];
      const Level& hi = input.levels[k + 1];
      const double upper_edge = lo.r_nominal * (1.0 + spread);
      double lower_edge = hi.r_nominal * (1.0 - spread);
      const bool widened = input.drift.enabled && !verify_effective;
      if (widened) lower_edge = relaxation_widened_low_edge(input, lower_edge);
      if (lower_edge <= upper_edge) {
        report.add(make_diagnostic(
            Severity::kError, codes::kBandOverlap, level_name(hi),
            std::string(widened ? "relaxation-widened band" : "band") + " of " +
                level_name(hi) + " reaches down to " + format_kohm(lower_edge) +
                ", inside " + level_name(lo) + "'s band (top " + format_kohm(upper_edge) +
                ")",
            widened ? "enable a relaxation-aware verify of at least two passes (.verify "
                      "tau_relax=1m max_passes=2), widen the level spacing, or drop to "
                      "fewer bits per cell"
                    : "widen the level spacing or reduce the programmed spread"));
      }
    }
  }

  // OXC005/OXC006: the verify wait must land inside the relaxation horizon —
  // after the fast component expressed, before the slow component moves.
  if (input.verify_enabled && input.drift.enabled) {
    if (phi_fast < kFastExpressedFraction) {
      report.add(make_diagnostic(
          Severity::kWarning, codes::kVerifyUnderHorizon, "",
          "verify waits " + std::to_string(input.tau_relax) + " s but the fast relaxation "
              "has only expressed " + std::to_string(phi_fast * 100.0) + " % by then (needs >= " +
              std::to_string(kFastExpressedFraction * 100.0) + " %)",
          "raise .verify tau_relax= above the relaxation horizon (~" +
              std::to_string(relaxation_horizon(input.drift)) + " s)"));
    }
    const double accel = oxram::drift_acceleration(input.drift);
    const double phi_slow = oxram::drift_phi(input.tau_relax * accel, input.drift.tau_slow,
                                             input.drift.nu_slow);
    if (phi_slow > kSlowContaminationFraction) {
      report.add(make_diagnostic(
          Severity::kWarning, codes::kVerifyOverHorizon, "",
          "verify waits " + std::to_string(input.tau_relax) + " s, by which the slow "
              "retention component has already expressed " +
              std::to_string(phi_slow * 100.0) + " % — the re-sense measures retention "
              "drift, not relaxation",
          "lower .verify tau_relax= (the fast component is expressed by ~" +
              std::to_string(relaxation_horizon(input.drift)) + " s)"));
    }
  }

  report.suppress(input.suppressed);
  return report;
}

}  // namespace oxmlc::mlc::analyze
