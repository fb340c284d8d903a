#include "src/common/json.h"

#include <cstdio>
#include <cstdlib>

namespace scatter {

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool JsonValue::AsDouble(double* out) const {
  if (type != kNumber) return false;
  *out = std::strtod(text.c_str(), nullptr);
  return true;
}

bool JsonValue::AsUint64(uint64_t* out) const {
  if (type != kNumber) return false;
  uint64_t v = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    const auto digit = static_cast<uint64_t>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) return false;
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

namespace {

constexpr int kMaxDepth = 64;

class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  bool Document(JsonValue* out) {
    SkipWs();
    if (!Value(out, 1)) return false;
    SkipWs();
    return pos_ == text_.size() || Fail("trailing bytes after the document");
  }

  const std::string& error() const { return error_; }

 private:
  bool Fail(const char* why) {
    error_ = std::string(why) + " at offset " + std::to_string(pos_);
    return false;
  }

  bool AtEnd() const { return pos_ == text_.size(); }
  char Peek() const { return text_[pos_]; }

  void SkipWs() {
    while (!AtEnd() &&
           (Peek() == ' ' || Peek() == '\t' || Peek() == '\n' || Peek() == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (AtEnd() || Peek() != c) return false;
    ++pos_;
    return true;
  }

  bool Literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return Fail("invalid literal");
    pos_ += lit.size();
    return true;
  }

  bool Digits() {
    const size_t start = pos_;
    while (!AtEnd() && Peek() >= '0' && Peek() <= '9') ++pos_;
    return pos_ > start;
  }

  // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  bool Number(std::string* out) {
    const size_t start = pos_;
    Consume('-');
    if (Consume('0')) {
      if (!AtEnd() && Peek() >= '0' && Peek() <= '9') {
        return Fail("leading zero in number");
      }
    } else if (!Digits()) {
      return Fail("expected a value");
    }
    if (Consume('.') && !Digits()) return Fail("expected fraction digits");
    if (Consume('e') || Consume('E')) {
      if (!Consume('+')) Consume('-');
      if (!Digits()) return Fail("expected exponent digits");
    }
    out->assign(text_.substr(start, pos_ - start));
    return true;
  }

  bool Hex4(unsigned* code) {
    if (text_.size() - pos_ < 4) return Fail("truncated \\u escape");
    *code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      *code <<= 4;
      if (h >= '0' && h <= '9') {
        *code |= static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        *code |= static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        *code |= static_cast<unsigned>(h - 'A' + 10);
      } else {
        return Fail("bad hex digit in \\u escape");
      }
    }
    return true;
  }

  bool String(std::string* out) {
    if (!Consume('"')) return Fail("expected string");
    out->clear();
    while (true) {
      if (AtEnd()) return Fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        return Fail("raw control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (AtEnd()) return Fail("unterminated string");
      switch (text_[pos_++]) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          if (!Hex4(&code)) return false;
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          --pos_;
          return Fail("unknown escape");
      }
    }
  }

  // `depth` counts the containers this value would sit in, itself included.
  bool Value(JsonValue* out, int depth) {
    if (AtEnd()) return Fail("expected a value");
    switch (Peek()) {
      case '{':
        if (depth > kMaxDepth) return Fail("nesting deeper than 64");
        ++pos_;
        out->type = JsonValue::kObject;
        SkipWs();
        if (Consume('}')) return true;
        while (true) {
          SkipWs();
          std::string key;
          if (!String(&key)) return false;
          SkipWs();
          if (!Consume(':')) return Fail("expected ':'");
          SkipWs();
          JsonValue value;
          if (!Value(&value, depth + 1)) return false;
          out->object.emplace_back(std::move(key), std::move(value));
          SkipWs();
          if (Consume('}')) return true;
          if (!Consume(',')) return Fail("expected ',' or '}'");
        }
      case '[':
        if (depth > kMaxDepth) return Fail("nesting deeper than 64");
        ++pos_;
        out->type = JsonValue::kArray;
        SkipWs();
        if (Consume(']')) return true;
        while (true) {
          SkipWs();
          out->array.emplace_back();
          if (!Value(&out->array.back(), depth + 1)) return false;
          SkipWs();
          if (Consume(']')) return true;
          if (!Consume(',')) return Fail("expected ',' or ']'");
        }
      case '"':
        out->type = JsonValue::kString;
        return String(&out->text);
      case 't':
        out->type = JsonValue::kBool;
        out->boolean = true;
        return Literal("true");
      case 'f':
        out->type = JsonValue::kBool;
        return Literal("false");
      case 'n':
        out->type = JsonValue::kNull;
        return Literal("null");
      default:
        out->type = JsonValue::kNumber;
        return Number(&out->text);
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace

bool ParseJson(std::string_view text, JsonValue* out, std::string* error) {
  Reader reader(text);
  *out = JsonValue();
  if (reader.Document(out)) return true;
  if (error != nullptr) *error = reader.error();
  return false;
}

}  // namespace scatter
