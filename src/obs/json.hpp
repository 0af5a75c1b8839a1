// Minimal JSON document model used by the telemetry exporters.
//
// Covers exactly the subset the metrics schema needs — objects with ordered
// keys, arrays, strings, doubles, booleans, null — with a writer that emits
// round-trippable doubles (max_digits10) and a recursive-descent parser for
// reading exports back (tests, tooling). Not a general-purpose JSON library:
// no \uXXXX surrogate pairs. The parser rejects duplicate object keys (the
// writer cannot produce them: `set` replaces an existing key in place).
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace oxmlc::obs {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;
  Json(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  Json(bool b) : type_(Type::kBool), bool_(b) {}  // NOLINT
  Json(double d) : type_(Type::kNumber), number_(d) {}  // NOLINT
  Json(int i) : type_(Type::kNumber), number_(i) {}  // NOLINT
  Json(unsigned long long u)  // NOLINT
      : type_(Type::kNumber), number_(static_cast<double>(u)) {}
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}  // NOLINT
  Json(const char* s) : type_(Type::kString), string_(s) {}  // NOLINT

  static Json array();
  static Json object();

  bool is_object() const { return type_ == Type::kObject; }
  bool is_string() const { return type_ == Type::kString; }

  // Typed accessors; throw InvalidArgumentError on type mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;

  // Array access.
  void push_back(Json value);
  std::size_t size() const;
  const Json& at(std::size_t index) const;

  // Object access. `set` keeps first-insertion order (stable exports);
  // `contains`/`get` look keys up; `get` throws on a missing key.
  void set(const std::string& key, Json value);
  bool contains(const std::string& key) const;
  const Json& get(const std::string& key) const;
  const std::vector<std::pair<std::string, Json>>& members() const;

  // Serialization. `indent` > 0 pretty-prints with that many spaces per level.
  std::string dump(int indent = 0) const;

  // Parses a JSON text; throws InvalidArgumentError with position info on
  // malformed input or trailing garbage.
  static Json parse(const std::string& text);

  bool operator==(const Json& other) const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;

  void dump_to(std::string& out, int indent, int depth) const;
};

}  // namespace oxmlc::obs
