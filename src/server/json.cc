#include "server/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace mugi {
namespace server {
namespace json {
namespace {

/** Recursive-descent parser state over one document. */
struct Parser {
    const std::string& text;
    std::size_t pos = 0;
    bool failed = false;

    void
    skip_ws()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r')) {
            ++pos;
        }
    }

    bool
    consume(char c)
    {
        skip_ws();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    consume_word(const char* word)
    {
        const std::size_t len = std::char_traits<char>::length(word);
        if (text.compare(pos, len, word) == 0) {
            pos += len;
            return true;
        }
        return false;
    }

    Value
    fail()
    {
        failed = true;
        return Value{};
    }

    Value
    parse_string()
    {
        Value v;
        v.kind = Value::Kind::kString;
        ++pos;  // Opening quote.
        while (pos < text.size() && text[pos] != '"') {
            char c = text[pos];
            if (c == '\\') {
                if (++pos >= text.size()) {
                    return fail();
                }
                switch (text[pos]) {
                  case '"': c = '"'; break;
                  case '\\': c = '\\'; break;
                  case '/': c = '/'; break;
                  case 'b': c = '\b'; break;
                  case 'f': c = '\f'; break;
                  case 'n': c = '\n'; break;
                  case 'r': c = '\r'; break;
                  case 't': c = '\t'; break;
                  case 'u': {
                    // \uXXXX: decode the BMP code point to UTF-8
                    // (no surrogate-pair handling -- the serving API
                    // exchanges ASCII).
                    if (pos + 4 >= text.size()) {
                        return fail();
                    }
                    unsigned cp = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text[++pos];
                        cp <<= 4;
                        if (h >= '0' && h <= '9') {
                            cp |= static_cast<unsigned>(h - '0');
                        } else if (h >= 'a' && h <= 'f') {
                            cp |= static_cast<unsigned>(h - 'a' + 10);
                        } else if (h >= 'A' && h <= 'F') {
                            cp |= static_cast<unsigned>(h - 'A' + 10);
                        } else {
                            return fail();
                        }
                    }
                    ++pos;
                    if (cp < 0x80) {
                        v.string.push_back(static_cast<char>(cp));
                    } else if (cp < 0x800) {
                        v.string.push_back(
                            static_cast<char>(0xC0 | (cp >> 6)));
                        v.string.push_back(
                            static_cast<char>(0x80 | (cp & 0x3F)));
                    } else {
                        v.string.push_back(
                            static_cast<char>(0xE0 | (cp >> 12)));
                        v.string.push_back(static_cast<char>(
                            0x80 | ((cp >> 6) & 0x3F)));
                        v.string.push_back(
                            static_cast<char>(0x80 | (cp & 0x3F)));
                    }
                    continue;
                  }
                  default:
                    return fail();
                }
            }
            v.string.push_back(c);
            ++pos;
        }
        if (pos >= text.size()) {
            return fail();  // Unterminated string.
        }
        ++pos;  // Closing quote.
        return v;
    }

    Value
    parse_number()
    {
        const char* start = text.c_str() + pos;
        char* end = nullptr;
        const double number = std::strtod(start, &end);
        if (end == start) {
            return fail();
        }
        pos += static_cast<std::size_t>(end - start);
        Value v;
        v.kind = Value::Kind::kNumber;
        v.number = number;
        return v;
    }

    Value
    parse_value(int depth)
    {
        if (depth > 32) {
            return fail();  // Bounded nesting: no stack abuse.
        }
        skip_ws();
        if (pos >= text.size()) {
            return fail();
        }
        const char c = text[pos];
        if (c == '"') {
            return parse_string();
        }
        if (c == '{') {
            ++pos;
            Value v;
            v.kind = Value::Kind::kObject;
            skip_ws();
            if (consume('}')) {
                return v;
            }
            for (;;) {
                skip_ws();
                if (pos >= text.size() || text[pos] != '"') {
                    return fail();
                }
                Value key = parse_string();
                if (failed || !consume(':')) {
                    return fail();
                }
                Value member = parse_value(depth + 1);
                if (failed) {
                    return fail();
                }
                v.object.emplace(std::move(key.string),
                                 std::move(member));
                if (consume(',')) {
                    continue;
                }
                if (consume('}')) {
                    return v;
                }
                return fail();
            }
        }
        if (c == '[') {
            ++pos;
            Value v;
            v.kind = Value::Kind::kArray;
            skip_ws();
            if (consume(']')) {
                return v;
            }
            for (;;) {
                Value element = parse_value(depth + 1);
                if (failed) {
                    return fail();
                }
                v.array.push_back(std::move(element));
                if (consume(',')) {
                    continue;
                }
                if (consume(']')) {
                    return v;
                }
                return fail();
            }
        }
        if (consume_word("true")) {
            Value v;
            v.kind = Value::Kind::kBool;
            v.boolean = true;
            return v;
        }
        if (consume_word("false")) {
            Value v;
            v.kind = Value::Kind::kBool;
            return v;
        }
        if (consume_word("null")) {
            return Value{};
        }
        if (c == '-' || (c >= '0' && c <= '9')) {
            return parse_number();
        }
        return fail();
    }
};

void
dump_to(const Value& value, std::string& out)
{
    switch (value.kind) {
      case Value::Kind::kNull:
        out += "null";
        break;
      case Value::Kind::kBool:
        out += value.boolean ? "true" : "false";
        break;
      case Value::Kind::kNumber: {
        // Integral values print without a decimal point, so token
        // ids and counts round-trip textually.
        if (value.number == std::floor(value.number) &&
            std::abs(value.number) < 1e15) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%lld",
                          static_cast<long long>(value.number));
            out += buf;
        } else {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.17g", value.number);
            out += buf;
        }
        break;
      }
      case Value::Kind::kString:
        out += '"';
        out += escape(value.string);
        out += '"';
        break;
      case Value::Kind::kArray: {
        out += '[';
        bool first = true;
        for (const Value& v : value.array) {
            if (!first) {
                out += ',';
            }
            first = false;
            dump_to(v, out);
        }
        out += ']';
        break;
      }
      case Value::Kind::kObject: {
        out += '{';
        bool first = true;
        for (const auto& [key, v] : value.object) {
            if (!first) {
                out += ',';
            }
            first = false;
            out += '"';
            out += escape(key);
            out += "\":";
            dump_to(v, out);
        }
        out += '}';
        break;
      }
    }
}

}  // namespace

const Value*
Value::find(const std::string& key) const
{
    if (kind != Kind::kObject) {
        return nullptr;
    }
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
}

double
Value::number_or(const std::string& key, double fallback) const
{
    const Value* v = find(key);
    return (v != nullptr && v->is_number()) ? v->number : fallback;
}

bool
Value::bool_or(const std::string& key, bool fallback) const
{
    const Value* v = find(key);
    return (v != nullptr && v->kind == Kind::kBool) ? v->boolean
                                                    : fallback;
}

std::optional<Value>
parse(const std::string& text)
{
    Parser parser{text};
    Value v = parser.parse_value(0);
    if (parser.failed) {
        return std::nullopt;
    }
    parser.skip_ws();
    if (parser.pos != text.size()) {
        return std::nullopt;  // Trailing garbage.
    }
    return v;
}

std::string
dump(const Value& value)
{
    std::string out;
    dump_to(value, out);
    return out;
}

std::string
escape(const std::string& text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned char>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

ObjectWriter&
ObjectWriter::field(const std::string& key, double value)
{
    Value v;
    v.kind = Value::Kind::kNumber;
    v.number = value;
    return field_raw(key, dump(v));
}

ObjectWriter&
ObjectWriter::field(const std::string& key, const std::string& value)
{
    std::string quoted(1, '"');
    quoted.append(escape(value)).append(1, '"');
    return field_raw(key, quoted);
}

ObjectWriter&
ObjectWriter::field_bool(const std::string& key, bool value)
{
    return field_raw(key, value ? "true" : "false");
}

ObjectWriter&
ObjectWriter::field_int(const std::string& key, long long value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", value);
    return field_raw(key, buf);
}

ObjectWriter&
ObjectWriter::field_raw(const std::string& key,
                        const std::string& json)
{
    if (!body_.empty()) {
        body_ += ',';
    }
    body_ += '"';
    body_ += escape(key);
    body_ += "\":";
    body_ += json;
    return *this;
}

std::string
ObjectWriter::str() const
{
    return "{" + body_ + "}";
}

}  // namespace json
}  // namespace server
}  // namespace mugi
