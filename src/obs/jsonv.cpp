#include "obs/jsonv.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>

namespace abftecc::obs {

namespace {

const std::string kEmptyString;
const JsonValue::Array kEmptyArray;
const JsonValue::Object kEmptyObject;

constexpr int kMaxDepth = 64;

struct Parser {
  std::string_view s;
  std::size_t i = 0;
  std::string err;

  bool fail(const std::string& msg) {
    if (err.empty())
      err = "json: byte " + std::to_string(i) + ": " + msg;
    return false;
  }

  void skip_ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' ||
                            s[i] == '\r'))
      ++i;
  }

  bool literal(std::string_view word) {
    if (s.substr(i, word.size()) != word) return fail("bad literal");
    i += word.size();
    return true;
  }

  bool parse_string(std::string* out) {
    if (i >= s.size() || s[i] != '"') return fail("expected '\"'");
    ++i;
    out->clear();
    while (i < s.size()) {
      const char c = s[i];
      if (c == '"') {
        ++i;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("raw control character in string");
      if (c != '\\') {
        out->push_back(c);
        ++i;
        continue;
      }
      if (++i >= s.size()) return fail("truncated escape");
      const char e = s[i++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (i + 4 > s.size()) return fail("truncated \\u escape");
          unsigned cp = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = s[i++];
            cp <<= 4;
            if (h >= '0' && h <= '9')
              cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              cp |= static_cast<unsigned>(h - 'A' + 10);
            else
              return fail("bad hex digit in \\u escape");
          }
          // Encode the code point as UTF-8. Surrogate pairs: a high
          // surrogate must be followed by \uDC00..\uDFFF.
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (i + 6 > s.size() || s[i] != '\\' || s[i + 1] != 'u')
              return fail("unpaired high surrogate");
            i += 2;
            unsigned lo = 0;
            for (int k = 0; k < 4; ++k) {
              const char h = s[i++];
              lo <<= 4;
              if (h >= '0' && h <= '9')
                lo |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                lo |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                lo |= static_cast<unsigned>(h - 'A' + 10);
              else
                return fail("bad hex digit in \\u escape");
            }
            if (lo < 0xDC00 || lo > 0xDFFF)
              return fail("bad low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("unpaired low surrogate");
          }
          if (cp < 0x80) {
            out->push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else if (cp < 0x10000) {
            out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
            out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default: return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue* out) {
    const std::size_t start = i;
    bool negative = false;
    bool integral = true;
    if (i < s.size() && s[i] == '-') {
      negative = true;
      ++i;
    }
    if (i >= s.size() || !std::isdigit(static_cast<unsigned char>(s[i])))
      return fail("bad number");
    if (s[i] == '0') {
      ++i;
    } else {
      while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i])))
        ++i;
    }
    if (i < s.size() && s[i] == '.') {
      integral = false;
      ++i;
      if (i >= s.size() || !std::isdigit(static_cast<unsigned char>(s[i])))
        return fail("bad fraction");
      while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i])))
        ++i;
    }
    if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
      integral = false;
      ++i;
      if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
      if (i >= s.size() || !std::isdigit(static_cast<unsigned char>(s[i])))
        return fail("bad exponent");
      while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i])))
        ++i;
    }
    const std::string text(s.substr(start, i - start));
    errno = 0;
    if (integral) {
      char* end = nullptr;
      if (negative) {
        const long long v = std::strtoll(text.c_str(), &end, 10);
        if (errno != ERANGE && end != nullptr && *end == '\0') {
          *out = JsonValue(static_cast<std::int64_t>(v));
          return true;
        }
      } else {
        const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
        if (errno != ERANGE && end != nullptr && *end == '\0') {
          *out = JsonValue(static_cast<std::uint64_t>(v));
          return true;
        }
      }
      errno = 0;  // integer overflow: fall through to double
    }
    *out = JsonValue(std::strtod(text.c_str(), nullptr));
    return true;
  }

  bool parse_value(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (i >= s.size()) return fail("unexpected end of input");
    switch (s[i]) {
      case 'n':
        if (!literal("null")) return false;
        *out = JsonValue();
        return true;
      case 't':
        if (!literal("true")) return false;
        *out = JsonValue(true);
        return true;
      case 'f':
        if (!literal("false")) return false;
        *out = JsonValue(false);
        return true;
      case '"': {
        std::string str;
        if (!parse_string(&str)) return false;
        *out = JsonValue(std::move(str));
        return true;
      }
      case '[': {
        ++i;
        JsonValue::Array arr;
        skip_ws();
        if (i < s.size() && s[i] == ']') {
          ++i;
          *out = JsonValue(std::move(arr));
          return true;
        }
        for (;;) {
          JsonValue elem;
          if (!parse_value(&elem, depth + 1)) return false;
          arr.push_back(std::move(elem));
          skip_ws();
          if (i >= s.size()) return fail("unterminated array");
          if (s[i] == ',') {
            ++i;
            continue;
          }
          if (s[i] == ']') {
            ++i;
            *out = JsonValue(std::move(arr));
            return true;
          }
          return fail("expected ',' or ']'");
        }
      }
      case '{': {
        ++i;
        JsonValue::Object obj;
        skip_ws();
        if (i < s.size() && s[i] == '}') {
          ++i;
          *out = JsonValue(std::move(obj));
          return true;
        }
        for (;;) {
          skip_ws();
          std::string key;
          if (!parse_string(&key)) return false;
          skip_ws();
          if (i >= s.size() || s[i] != ':') return fail("expected ':'");
          ++i;
          JsonValue val;
          if (!parse_value(&val, depth + 1)) return false;
          obj.emplace_back(std::move(key), std::move(val));
          skip_ws();
          if (i >= s.size()) return fail("unterminated object");
          if (s[i] == ',') {
            ++i;
            continue;
          }
          if (s[i] == '}') {
            ++i;
            *out = JsonValue(std::move(obj));
            return true;
          }
          return fail("expected ',' or '}'");
        }
      }
      default: return parse_number(out);
    }
  }
};

}  // namespace

double JsonValue::as_double(double fallback) const {
  if (const double* d = std::get_if<double>(&v_)) return *d;
  if (const std::uint64_t* u = std::get_if<std::uint64_t>(&v_))
    return static_cast<double>(*u);
  if (const std::int64_t* i = std::get_if<std::int64_t>(&v_))
    return static_cast<double>(*i);
  // JSON has no NaN/Inf literals, so JsonWriter emits non-finite doubles
  // as the strings "NaN"/"Infinity"/"-Infinity" (json.cpp). Map those
  // sentinels back so a non-finite value survives the round trip instead
  // of collapsing to the fallback.
  if (const std::string* s = std::get_if<std::string>(&v_)) {
    if (*s == "NaN") return std::numeric_limits<double>::quiet_NaN();
    if (*s == "Infinity") return std::numeric_limits<double>::infinity();
    if (*s == "-Infinity") return -std::numeric_limits<double>::infinity();
  }
  return fallback;
}

std::uint64_t JsonValue::as_u64(std::uint64_t fallback) const {
  if (const std::uint64_t* u = std::get_if<std::uint64_t>(&v_)) return *u;
  if (const std::int64_t* i = std::get_if<std::int64_t>(&v_))
    return *i >= 0 ? static_cast<std::uint64_t>(*i) : fallback;
  if (const double* d = std::get_if<double>(&v_))
    return *d >= 0.0 ? static_cast<std::uint64_t>(*d) : fallback;
  return fallback;
}

std::int64_t JsonValue::as_i64(std::int64_t fallback) const {
  if (const std::int64_t* i = std::get_if<std::int64_t>(&v_)) return *i;
  if (const std::uint64_t* u = std::get_if<std::uint64_t>(&v_))
    return *u <= static_cast<std::uint64_t>(
                     std::numeric_limits<std::int64_t>::max())
               ? static_cast<std::int64_t>(*u)
               : fallback;
  if (const double* d = std::get_if<double>(&v_))
    return static_cast<std::int64_t>(*d);
  return fallback;
}

const std::string& JsonValue::as_string() const {
  const std::string* s = std::get_if<std::string>(&v_);
  return s != nullptr ? *s : kEmptyString;
}

const JsonValue::Array& JsonValue::as_array() const {
  const Array* a = std::get_if<Array>(&v_);
  return a != nullptr ? *a : kEmptyArray;
}

const JsonValue::Object& JsonValue::as_object() const {
  const Object* o = std::get_if<Object>(&v_);
  return o != nullptr ? *o : kEmptyObject;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  const Object* o = std::get_if<Object>(&v_);
  if (o == nullptr) return nullptr;
  for (const Member& m : *o)
    if (m.first == key) return &m.second;
  return nullptr;
}

std::optional<JsonValue> json_parse(std::string_view text,
                                    std::string* error) {
  Parser p{text, 0, {}};
  JsonValue v;
  if (!p.parse_value(&v, 0)) {
    if (error != nullptr) *error = p.err;
    return std::nullopt;
  }
  p.skip_ws();
  if (p.i != text.size()) {
    if (error != nullptr)
      *error = "json: byte " + std::to_string(p.i) + ": trailing garbage";
    return std::nullopt;
  }
  return v;
}

}  // namespace abftecc::obs
