#include "spice/netlist.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <initializer_list>
#include <memory>
#include <optional>
#include <sstream>

#include "devices/diode.hpp"
#include "devices/mosfet.hpp"
#include "devices/passive.hpp"
#include "devices/sources.hpp"
#include "oxram/device.hpp"
#include "spice/waveform.hpp"
#include "util/error.hpp"
#include "util/parse.hpp"

namespace oxmlc::spice {
namespace {

[[noreturn]] void fail(std::size_t line, const char* code, const std::string& message) {
  throw NetlistError(line, code, message);
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

// Recursive-descent expression evaluator for {..} values.
class ExpressionParser {
 public:
  ExpressionParser(std::string text, const std::map<std::string, double>& params)
      : text_(std::move(text)), params_(params) {}

  double parse() {
    const double v = expression();
    skip_space();
    OXMLC_CHECK(pos_ == text_.size(), "trailing characters in expression: " + text_);
    return v;
  }

 private:
  void skip_space() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_space();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  double expression() {
    double value = term();
    while (true) {
      if (consume('+')) {
        value += term();
      } else if (consume('-')) {
        value -= term();
      } else {
        return value;
      }
    }
  }

  double term() {
    double value = factor();
    while (true) {
      if (consume('*')) {
        value *= factor();
      } else if (consume('/')) {
        const double d = factor();
        OXMLC_CHECK(d != 0.0, "division by zero in expression: " + text_);
        value /= d;
      } else {
        return value;
      }
    }
  }

  double factor() {
    skip_space();
    if (consume('(')) {
      const double v = expression();
      OXMLC_CHECK(consume(')'), "missing ')' in expression: " + text_);
      return v;
    }
    if (consume('-')) return -factor();
    if (consume('+')) return factor();

    // Number (with suffix) or parameter name.
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == '_' ||
            ((text_[pos_] == '+' || text_[pos_] == '-') && pos_ > start &&
             (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E')))) {
      ++pos_;
    }
    OXMLC_CHECK(pos_ > start, "expected number or name in expression: " + text_);
    const std::string token = text_.substr(start, pos_ - start);
    if (std::isdigit(static_cast<unsigned char>(token[0])) || token[0] == '.') {
      std::string unit_tail;
      const std::optional<double> v = util::parse_si(token, &unit_tail);
      OXMLC_CHECK(v.has_value(), "bad number in expression: " + token);
      return *v;
    }
    const auto it = params_.find(lower(token));
    OXMLC_CHECK(it != params_.end(), "unknown parameter in expression: " + token);
    return it->second;
  }

  // By value: parse_value hands us a temporary substring.
  std::string text_;
  const std::map<std::string, double>& params_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// tokenization
// ---------------------------------------------------------------------------

// Splits a card into tokens, keeping "(...)" groups attached to the previous
// token (so "PULSE(0 1 ...)" is one functional token with arguments).
std::vector<std::string> tokenize(const std::string& line, std::size_t line_no) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    if (std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
      continue;
    }
    std::size_t start = i;
    int depth = 0;
    while (i < line.size()) {
      const char c = line[i];
      if (c == '(' || c == '{') ++depth;
      if (c == ')' || c == '}') {
        if (depth == 0) {
          fail(line_no, analyze::codes::kMalformedCard, "unbalanced ')' in: " + line);
        }
        --depth;
      }
      if (depth == 0 && std::isspace(static_cast<unsigned char>(c))) break;
      ++i;
    }
    if (depth != 0) {
      fail(line_no, analyze::codes::kMalformedCard, "unbalanced '(' in: " + line);
    }
    tokens.push_back(line.substr(start, i - start));
  }
  return tokens;
}

// Splits "NAME(a b c)" into name and argument tokens.
bool split_function(const std::string& token, std::string& name,
                    std::vector<std::string>& args) {
  const std::size_t open = token.find('(');
  if (open == std::string::npos || token.back() != ')') return false;
  name = lower(token.substr(0, open));
  const std::string inner = token.substr(open + 1, token.size() - open - 2);
  std::istringstream is(inner);
  std::string arg;
  args.clear();
  while (is >> arg) args.push_back(arg);
  return true;
}

// key=value sugar: returns true and fills key/value when the token has '='.
bool split_assignment(const std::string& token, std::string& key, std::string& value) {
  const std::size_t eq = token.find('=');
  if (eq == std::string::npos) return false;
  key = lower(token.substr(0, eq));
  value = token.substr(eq + 1);
  return !key.empty() && !value.empty();
}

}  // namespace

double parse_value(const std::string& token, const std::map<std::string, double>& params) {
  OXMLC_CHECK(!token.empty(), "empty value token");
  if (token.front() == '{') {
    OXMLC_CHECK(token.back() == '}', "unterminated expression: " + token);
    ExpressionParser parser(token.substr(1, token.size() - 2), params);
    const double v = parser.parse();
    OXMLC_CHECK(std::isfinite(v), "expression is not finite: " + token);
    return v;
  }
  std::string unit_tail;
  if (const std::optional<double> v = util::parse_si(token, &unit_tail)) return *v;
  // Bare parameter reference.
  const auto it = params.find(lower(token));
  OXMLC_CHECK(it != params.end(), "cannot parse value: " + token);
  return it->second;
}

ParsedNetlist parse_netlist(const std::string& text) {
  ParsedNetlist out;
  Circuit& c = out.circuit;

  // --- join continuation lines, strip comments ---
  std::vector<std::pair<std::size_t, std::string>> cards;
  {
    std::istringstream is(text);
    std::string raw;
    std::size_t line_no = 0;
    while (std::getline(is, raw)) {
      ++line_no;
      const std::size_t comment = raw.find(';');
      if (comment != std::string::npos) raw.erase(comment);
      // Trim.
      const auto is_space = [](unsigned char ch) { return std::isspace(ch); };
      while (!raw.empty() && is_space(static_cast<unsigned char>(raw.back()))) raw.pop_back();
      std::size_t first = 0;
      while (first < raw.size() && is_space(static_cast<unsigned char>(raw[first]))) ++first;
      raw.erase(0, first);
      if (raw.empty()) continue;
      if (raw[0] == '*') {
        if (cards.empty() && out.title.empty()) out.title = raw.substr(1);
        continue;
      }
      if (raw[0] == '+') {
        if (cards.empty()) {
          fail(line_no, analyze::codes::kMalformedCard,
               "continuation '+' with no previous card");
        }
        cards.back().second += " " + raw.substr(1);
        continue;
      }
      cards.emplace_back(line_no, raw);
    }
  }

  auto& params = out.parameters;

  // Card being processed right now; the value/lint lambdas close over these so
  // inner helpers (waveforms, key=value tails) report accurate context.
  std::size_t current_line = 0;
  std::string current_device;

  // OXA007: a numeric literal whose letters after the SI scale suffix are not
  // a known unit word. The value still parses (the tail is ignored, SPICE
  // convention) but "10kk" or "1qF" is almost always a typo.
  auto lint_token = [&](const std::string& token) {
    if (token.empty() || token.front() == '{') return;
    std::string tail;
    if (!util::parse_si(token, &tail) || util::known_unit_tail(tail)) return;
    analyze::Diagnostic d;
    d.severity = analyze::Severity::kWarning;
    d.code = analyze::codes::kSuspiciousSuffix;
    d.device = current_device;
    d.message = "line " + std::to_string(current_line) + ": value literal '" + token +
                "' has unrecognized unit tail '" + tail + "' (ignored)";
    d.fix_hint = "check the SI suffix (f p n u m k meg g t); units like 'ohm' or "
                 "'F' may follow it";
    out.lint.add(std::move(d));
  };

  auto value = [&](const std::string& token) -> double {
    lint_token(token);
    try {
      return parse_value(token, params);
    } catch (const InvalidArgumentError& e) {
      fail(current_line, analyze::codes::kBadValue, e.what());
    }
  };

  // Parses the optional key=value tail into a map (case-insensitive keys). A
  // key the card does not take, or one it is given twice, is a bad value.
  auto parse_options = [&](const std::vector<std::string>& tokens, std::size_t from,
                           std::size_t line_no,
                           std::initializer_list<const char*> accepted) {
    std::map<std::string, double> options;
    for (std::size_t k = from; k < tokens.size(); ++k) {
      std::string key, val;
      if (!split_assignment(tokens[k], key, val)) {
        fail(line_no, analyze::codes::kMalformedCard,
             "expected key=value, got: " + tokens[k]);
      }
      const std::string spelled = tokens[k].substr(0, tokens[k].find('='));
      if (std::none_of(accepted.begin(), accepted.end(),
                       [&](const char* name) { return lower(name) == key; })) {
        std::string names;
        for (const char* name : accepted) {
          names += (names.empty() ? "" : ", ") + std::string(name);
        }
        fail(line_no, analyze::codes::kBadValue,
             "unknown option " + spelled + " on " + current_device + " (accepted: " +
                 names + ")");
      }
      if (!options.emplace(key, value(val)).second) {
        fail(line_no, analyze::codes::kBadValue,
             "option " + spelled + " given twice on " + current_device);
      }
    }
    return options;
  };

  // A card ends after its value (or a source's waveform): any token past
  // `end` is malformed, not silently dropped.
  auto expect_end = [&](const std::vector<std::string>& tokens, std::size_t end,
                        std::size_t line_no) {
    if (tokens.size() > end) {
      fail(line_no, analyze::codes::kMalformedCard,
           "unexpected token '" + tokens[end] + "' after the value of " + current_device);
    }
  };

  // A V/I card's value or waveform, the last thing on the card.
  auto make_waveform = [&](const std::vector<std::string>& tokens, std::size_t from,
                           std::size_t line_no) -> std::shared_ptr<Waveform> {
    if (from >= tokens.size()) {
      fail(line_no, analyze::codes::kMalformedCard, "source needs a value or waveform");
    }
    expect_end(tokens, from + (lower(tokens[from]) == "dc" ? 2 : 1), line_no);
    std::string fn;
    std::vector<std::string> args;
    if (split_function(tokens[from], fn, args)) {
      if (fn == "pulse") {
        if (args.size() < 2 || args.size() > 7) {
          fail(line_no, analyze::codes::kMalformedCard,
               "PULSE takes 2 to 7 values (v1 v2 [td tr tf pw per]), got " +
                   std::to_string(args.size()));
        }
        PulseSpec spec;
        spec.v1 = value(args[0]);
        spec.v2 = value(args[1]);
        if (args.size() > 2) spec.delay = value(args[2]);
        if (args.size() > 3) spec.rise = value(args[3]);
        if (args.size() > 4) spec.fall = value(args[4]);
        if (args.size() > 5) spec.width = value(args[5]);
        if (args.size() > 6) spec.period = value(args[6]);
        return std::make_shared<PulseWaveform>(spec);
      }
      if (fn == "pwl") {
        if (args.size() < 2 || args.size() % 2 != 0) {
          fail(line_no, analyze::codes::kMalformedCard, "PWL needs time/value pairs");
        }
        std::vector<std::pair<double, double>> points;
        for (std::size_t k = 0; k + 1 < args.size(); k += 2) {
          points.emplace_back(value(args[k]), value(args[k + 1]));
        }
        return std::make_shared<PwlWaveform>(std::move(points));
      }
      if (fn == "sin") {
        if (args.size() < 3 || args.size() > 4) {
          fail(line_no, analyze::codes::kMalformedCard,
               "SIN takes 3 or 4 values (offset amplitude frequency [delay]; no "
               "damping), got " + std::to_string(args.size()));
        }
        return std::make_shared<SinWaveform>(value(args[0]), value(args[1]),
                                             value(args[2]),
                                             args.size() > 3 ? value(args[3]) : 0.0);
      }
      fail(line_no, analyze::codes::kUnknownWaveform, "unknown waveform: " + fn);
    }
    // "DC <v>" or a bare value.
    if (lower(tokens[from]) == "dc") {
      if (from + 1 >= tokens.size()) {
        fail(line_no, analyze::codes::kMalformedCard, "DC needs a value");
      }
      return std::make_shared<DcWaveform>(value(tokens[from + 1]));
    }
    return std::make_shared<DcWaveform>(value(tokens[from]));
  };

  for (const auto& [line_no, card] : cards) {
    current_line = line_no;
    current_device.clear();
    const auto tokens = tokenize(card, line_no);
    if (tokens.empty()) continue;
    const std::string head = tokens[0];

    // --- directives ---
    if (head[0] == '.') {
      const std::string directive = lower(head);
      if (directive == ".end") break;
      if (directive == ".param") {
        for (std::size_t k = 1; k < tokens.size(); ++k) {
          std::string key, val;
          if (!split_assignment(tokens[k], key, val)) {
            fail(line_no, analyze::codes::kMalformedCard,
                 ".param expects NAME=VALUE, got: " + tokens[k]);
          }
          params[key] = value(val);
        }
        continue;
      }
      if (directive == ".nolint") {
        for (std::size_t k = 1; k < tokens.size(); ++k) {
          std::string code = tokens[k];
          std::transform(code.begin(), code.end(), code.begin(), [](unsigned char ch) {
            return static_cast<char>(std::toupper(ch));
          });
          out.suppressed.push_back(std::move(code));
        }
        continue;
      }
      fail(line_no, analyze::codes::kUnknownDirective, "unknown directive: " + head);
    }

    out.device_names.push_back(head);
    current_device = head;
    const char kind = static_cast<char>(std::toupper(static_cast<unsigned char>(head[0])));
    auto node = [&](std::size_t idx) {
      if (idx >= tokens.size()) {
        fail(line_no, analyze::codes::kMalformedCard, "missing node on card: " + card);
      }
      return c.node(tokens[idx]);
    };

    // Device constructors reject out-of-domain parameters (non-positive R/C/L,
    // zero MOSFET W/L) with an InvalidArgumentError that knows nothing about
    // netlist lines; re-badge those as OXP004 with the line attached.
    try {
    switch (kind) {
      case 'R':
        if (tokens.size() < 4) fail(line_no, analyze::codes::kMalformedCard, "R card: R<name> n1 n2 value");
        expect_end(tokens, 4, line_no);
        c.add<dev::Resistor>(head, node(1), node(2), value(tokens[3]));
        break;
      case 'C':
        if (tokens.size() < 4) fail(line_no, analyze::codes::kMalformedCard, "C card: C<name> n1 n2 value");
        expect_end(tokens, 4, line_no);
        c.add<dev::Capacitor>(head, node(1), node(2), value(tokens[3]));
        break;
      case 'L':
        if (tokens.size() < 4) fail(line_no, analyze::codes::kMalformedCard, "L card: L<name> n1 n2 value");
        expect_end(tokens, 4, line_no);
        c.add<dev::Inductor>(head, node(1), node(2), value(tokens[3]));
        break;
      case 'V':
        c.add<dev::VoltageSource>(head, node(1), node(2),
                                  make_waveform(tokens, 3, line_no));
        break;
      case 'I':
        c.add<dev::CurrentSource>(head, node(1), node(2),
                                  make_waveform(tokens, 3, line_no));
        break;
      case 'E':
        if (tokens.size() < 6) fail(line_no, analyze::codes::kMalformedCard, "E card: E<name> o+ o- i+ i- gain");
        expect_end(tokens, 6, line_no);
        c.add<dev::Vcvs>(head, node(1), node(2), node(3), node(4), value(tokens[5]));
        break;
      case 'G':
        if (tokens.size() < 6) fail(line_no, analyze::codes::kMalformedCard, "G card: G<name> o+ o- i+ i- gm");
        expect_end(tokens, 6, line_no);
        c.add<dev::Vccs>(head, node(1), node(2), node(3), node(4), value(tokens[5]));
        break;
      case 'F':
      case 'H': {
        if (tokens.size() < 5) {
          fail(line_no, analyze::codes::kMalformedCard,
               "F/H card: <name> o+ o- Vsensor gain");
        }
        expect_end(tokens, 5, line_no);
        auto* sensor = dynamic_cast<dev::VoltageSource*>(c.find_device(tokens[3]));
        if (sensor == nullptr) {
          fail(line_no, analyze::codes::kBadReference,
               "controlling source not found (must be a V card declared "
               "earlier): " + tokens[3]);
        }
        if (kind == 'F') {
          c.add<dev::Cccs>(head, node(1), node(2), *sensor, value(tokens[4]));
        } else {
          c.add<dev::Ccvs>(head, node(1), node(2), *sensor, value(tokens[4]));
        }
        break;
      }
      case 'D': {
        if (tokens.size() < 3) fail(line_no, analyze::codes::kMalformedCard, "D card: D<name> anode cathode");
        const auto options = parse_options(tokens, 3, line_no, {"IS", "N"});
        dev::DiodeParams p;
        if (options.count("is")) p.saturation_current = options.at("is");
        if (options.count("n")) p.emission_coefficient = options.at("n");
        c.add<dev::Diode>(head, node(1), node(2), p);
        break;
      }
      case 'M': {
        if (tokens.size() < 6) {
          fail(line_no, analyze::codes::kMalformedCard,
               "M card: M<name> d g s b NMOS|PMOS [W=..] [L=..]");
        }
        const std::string model = lower(tokens[5]);
        double w = 1e-6, l = 0.5e-6;
        const auto options =
            parse_options(tokens, 6, line_no, {"W", "L", "VT0", "KP", "LAMBDA"});
        if (options.count("w")) w = options.at("w");
        if (options.count("l")) l = options.at("l");
        dev::MosfetParams p;
        if (model == "nmos") {
          p = dev::tech130hv::nmos(w, l);
        } else if (model == "pmos") {
          p = dev::tech130hv::pmos(w, l);
        } else {
          fail(line_no, analyze::codes::kUnknownWaveform, "unknown MOSFET model: " + tokens[5]);
        }
        if (options.count("vt0")) p.vt0 = options.at("vt0");
        if (options.count("kp")) p.kp = options.at("kp");
        if (options.count("lambda")) p.lambda = options.at("lambda");
        c.add<dev::Mosfet>(head, node(1), node(2), node(3), node(4), p);
        break;
      }
      case 'S': {
        if (tokens.size() < 5) fail(line_no, analyze::codes::kMalformedCard, "S card: S<name> a b c+ c- [VT=..]");
        const auto options = parse_options(tokens, 5, line_no, {"VT", "RON", "ROFF"});
        dev::VSwitch::Params p;
        if (options.count("vt")) p.threshold = options.at("vt");
        if (options.count("ron")) p.r_on = options.at("ron");
        if (options.count("roff")) p.r_off = options.at("roff");
        c.add<dev::VSwitch>(head, node(1), node(2), node(3), node(4), p);
        break;
      }
      case 'X': {
        if (tokens.size() < 4 || lower(tokens[3]) != "oxram") {
          fail(line_no, analyze::codes::kMalformedCard,
               "X card: X<name> te be OXRAM [GAP=..] [VIRGIN=0|1]");
        }
        const auto options = parse_options(tokens, 4, line_no, {"GAP", "VIRGIN"});
        oxram::OxramParams p;
        double gap = options.count("gap") ? options.at("gap") : p.g_min;
        const double virgin_flag = options.count("virgin") ? options.at("virgin") : 0.0;
        if (virgin_flag != 0.0 && virgin_flag != 1.0) {
          fail(line_no, analyze::codes::kBadValue, "VIRGIN expects 0 or 1 on " + head);
        }
        const bool virgin = virgin_flag == 1.0;
        if (virgin && !options.count("gap")) gap = p.g_virgin;
        c.add<oxram::OxramDevice>(head, node(1), node(2), p, gap, virgin);
        break;
      }
      default:
        fail(line_no, analyze::codes::kUnknownCard, "unknown device card: " + head);
    }
    } catch (const NetlistError&) {
      throw;
    } catch (const InvalidArgumentError& e) {
      fail(line_no, analyze::codes::kBadValue, e.what());
    }
  }

  out.lint.suppress(out.suppressed);
  return out;
}

}  // namespace oxmlc::spice
