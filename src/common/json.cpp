#include "common/json.hpp"

#include <cerrno>
#include <cstdlib>

namespace p2pfl::json {

const Value* Value::get(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

class Parser {
 public:
  Parser(std::string_view text, ParseError* error)
      : text_(text), error_(error) {}

  std::optional<Value> run() {
    skip_ws();
    Value v;
    if (!parse_value(v)) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after document");
      return std::nullopt;
    }
    return v;
  }

 private:
  bool fail(const char* msg) {
    if (error_ != nullptr && error_->message.empty()) {
      error_->offset = pos_;
      error_->message = msg;
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return fail("invalid literal");
    }
    pos_ += word.size();
    return true;
  }

  bool parse_value(Value& out) {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return parse_object(out);
      case '[':
        return parse_array(out);
      case '"':
        out.kind = Value::Kind::kString;
        return parse_string(out.text);
      case 't':
        out.kind = Value::Kind::kBool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.kind = Value::Kind::kBool;
        out.boolean = false;
        return literal("false");
      case 'n':
        out.kind = Value::Kind::kNull;
        return literal("null");
      default:
        return parse_number(out);
    }
  }

  bool parse_object(Value& out) {
    out.kind = Value::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return fail("expected object key");
      }
      if (!parse_string(key)) return false;
      skip_ws();
      if (!consume(':')) return fail("expected ':' after key");
      skip_ws();
      Value v;
      if (!parse_value(v)) return false;
      out.object.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return true;
      return fail("expected ',' or '}' in object");
    }
  }

  bool parse_array(Value& out) {
    out.kind = Value::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      skip_ws();
      Value v;
      if (!parse_value(v)) return false;
      out.array.push_back(std::move(v));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return true;
      return fail("expected ',' or ']' in array");
    }
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening '"'
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char e = text_[pos_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out.push_back(e);
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("invalid \\u escape");
            }
          }
          // BMP-only UTF-8 encoding; our emitters never produce
          // surrogate pairs.
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default:
          return fail("invalid escape character");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(Value& out) {
    const std::size_t start = pos_;
    if (consume('-')) {
    }
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return fail("expected a value");
    out.kind = Value::Kind::kNumber;
    out.text.assign(text_.substr(start, pos_ - start));
    errno = 0;
    char* end = nullptr;
    out.number = std::strtod(out.text.c_str(), &end);
    if (end != out.text.c_str() + out.text.size() || errno == ERANGE) {
      return fail("malformed number");
    }
    return true;
  }

  std::string_view text_;
  ParseError* error_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<Value> parse(std::string_view text, ParseError* error) {
  return Parser(text, error).run();
}

}  // namespace p2pfl::json
