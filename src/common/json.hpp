// Minimal JSON parser for the tooling layer (bench/regress, tests).
//
// Hand-written recursive descent, no external dependency: the repo's
// own emitters (bench/json_util.hpp, the obs exports) produce the only
// documents this ever reads, so the parser favors clarity over
// generality. Object member order is preserved (our emitters are
// deterministic, so order is meaningful in golden comparisons), numbers
// are doubles with the original literal text retained for exact
// comparisons, and parse errors carry a byte offset.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace p2pfl::json {

/// One parsed JSON value; a tree of these is a document.
class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  /// kNumber: the literal as written (exact-comparison safe).
  /// kString: the unescaped string contents.
  std::string text;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;  // insertion order

  bool is_null() const { return kind == Kind::kNull; }
  bool is_bool() const { return kind == Kind::kBool; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  /// Object member by key, or nullptr.
  const Value* get(std::string_view key) const;
};

struct ParseError {
  std::size_t offset = 0;
  std::string message;
};

/// Parse one JSON document (trailing whitespace allowed, nothing else).
/// Returns nullopt and fills `error` (when non-null) on failure.
std::optional<Value> parse(std::string_view text,
                           ParseError* error = nullptr);

}  // namespace p2pfl::json
