#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <type_traits>

#include "util/logging.hpp"

namespace pcap {

namespace {

/**
 * Recursive-descent JSON parser. Strict where it matters for the
 * documents the harness consumes (alert rule files): full string
 * escapes including surrogate pairs, strtod numbers, a nesting-depth
 * cap so hostile input cannot blow the stack.
 */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    bool parse(Json &out, std::string *error)
    {
        skipWhitespace();
        if (!parseValue(out, 0))
            return fail(error);
        skipWhitespace();
        if (pos_ != text_.size()) {
            problem_ = "trailing characters after the document";
            return fail(error);
        }
        return true;
    }

  private:
    static constexpr int kMaxDepth = 200;

    bool fail(std::string *error) const
    {
        if (error) {
            *error = "offset " + std::to_string(pos_) + ": " +
                     (problem_.empty() ? "malformed JSON" : problem_);
        }
        return false;
    }

    void skipWhitespace()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    bool consume(const char *literal)
    {
        std::size_t i = 0;
        while (literal[i]) {
            if (pos_ + i >= text_.size() ||
                text_[pos_ + i] != literal[i])
                return false;
            ++i;
        }
        pos_ += i;
        return true;
    }

    bool parseValue(Json &out, int depth)
    {
        if (depth > kMaxDepth) {
            problem_ = "nesting deeper than " +
                       std::to_string(kMaxDepth) + " levels";
            return false;
        }
        if (pos_ >= text_.size()) {
            problem_ = "unexpected end of input";
            return false;
        }
        switch (text_[pos_]) {
          case 'n':
            if (!consume("null")) {
                problem_ = "expected 'null'";
                return false;
            }
            out = Json();
            return true;
          case 't':
            if (!consume("true")) {
                problem_ = "expected 'true'";
                return false;
            }
            out = Json(true);
            return true;
          case 'f':
            if (!consume("false")) {
                problem_ = "expected 'false'";
                return false;
            }
            out = Json(false);
            return true;
          case '"': {
            std::string value;
            if (!parseString(value))
                return false;
            out = Json(std::move(value));
            return true;
          }
          case '[': return parseArray(out, depth);
          case '{': return parseObject(out, depth);
          default: return parseNumber(out);
        }
    }

    bool parseArray(Json &out, int depth)
    {
        ++pos_; // '['
        out = Json::array();
        skipWhitespace();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            Json element;
            skipWhitespace();
            if (!parseValue(element, depth + 1))
                return false;
            out.push(std::move(element));
            skipWhitespace();
            if (pos_ >= text_.size()) {
                problem_ = "unterminated array";
                return false;
            }
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            problem_ = "expected ',' or ']' in array";
            return false;
        }
    }

    bool parseObject(Json &out, int depth)
    {
        ++pos_; // '{'
        out = Json::object();
        skipWhitespace();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWhitespace();
            if (pos_ >= text_.size() || text_[pos_] != '"') {
                problem_ = "expected a string object key";
                return false;
            }
            std::string key;
            if (!parseString(key))
                return false;
            skipWhitespace();
            if (pos_ >= text_.size() || text_[pos_] != ':') {
                problem_ = "expected ':' after object key";
                return false;
            }
            ++pos_;
            skipWhitespace();
            if (!parseValue(out[key], depth + 1))
                return false;
            skipWhitespace();
            if (pos_ >= text_.size()) {
                problem_ = "unterminated object";
                return false;
            }
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            problem_ = "expected ',' or '}' in object";
            return false;
        }
    }

    bool parseNumber(Json &out)
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        const std::size_t digits = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(
                    text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == digits) {
            problem_ = "expected a value";
            pos_ = start;
            return false;
        }
        const std::string token =
            text_.substr(start, pos_ - start);
        char *end = nullptr;
        const double value = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size() ||
            !std::isfinite(value)) {
            problem_ = "malformed number '" + token + "'";
            pos_ = start;
            return false;
        }
        out = Json(value);
        return true;
    }

    /** Append code point @p cp to @p out as UTF-8. */
    static void appendUtf8(std::string &out, unsigned long cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xc0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xe0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else {
            out += static_cast<char>(0xf0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        }
    }

    bool parseHex4(unsigned long &value)
    {
        if (pos_ + 4 > text_.size()) {
            problem_ = "truncated \\u escape";
            return false;
        }
        value = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text_[pos_ + static_cast<std::size_t>(i)];
            value <<= 4;
            if (c >= '0' && c <= '9')
                value |= static_cast<unsigned long>(c - '0');
            else if (c >= 'a' && c <= 'f')
                value |= static_cast<unsigned long>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                value |= static_cast<unsigned long>(c - 'A' + 10);
            else {
                problem_ = "bad hex digit in \\u escape";
                return false;
            }
        }
        pos_ += 4;
        return true;
    }

    bool parseString(std::string &out)
    {
        ++pos_; // opening quote
        out.clear();
        while (true) {
            if (pos_ >= text_.size()) {
                problem_ = "unterminated string";
                return false;
            }
            const char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20) {
                problem_ = "unescaped control character in string";
                return false;
            }
            if (c != '\\') {
                out += c;
                ++pos_;
                continue;
            }
            ++pos_;
            if (pos_ >= text_.size()) {
                problem_ = "unterminated escape";
                return false;
            }
            const char escape = text_[pos_++];
            switch (escape) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                unsigned long cp = 0;
                if (!parseHex4(cp))
                    return false;
                if (cp >= 0xd800 && cp <= 0xdbff) {
                    // High surrogate: a \uDC00-\uDFFF low half must
                    // follow to form one supplementary code point.
                    if (pos_ + 1 >= text_.size() ||
                        text_[pos_] != '\\' ||
                        text_[pos_ + 1] != 'u') {
                        problem_ = "lone high surrogate";
                        return false;
                    }
                    pos_ += 2;
                    unsigned long low = 0;
                    if (!parseHex4(low))
                        return false;
                    if (low < 0xdc00 || low > 0xdfff) {
                        problem_ = "bad low surrogate";
                        return false;
                    }
                    cp = 0x10000 + ((cp - 0xd800) << 10) +
                         (low - 0xdc00);
                } else if (cp >= 0xdc00 && cp <= 0xdfff) {
                    problem_ = "lone low surrogate";
                    return false;
                }
                appendUtf8(out, cp);
                break;
              }
              default:
                problem_ = "unknown escape";
                return false;
            }
        }
    }

    const std::string &text_;
    std::size_t pos_ = 0;
    std::string problem_;
};

} // namespace

// Containers of Json move their elements on growth, never copy.
static_assert(std::is_nothrow_move_constructible_v<Json>);

Json::Json(const Json &other)
    : kind_(other.kind_), bool_(other.bool_), number_(other.number_),
      string_(other.string_), array_(other.array_),
      members_(other.members_)
{
    order_.reserve(other.order_.size());
    for (const Member *member : other.order_)
        order_.push_back(&*members_.find(member->first));
}

Json &
Json::operator=(const Json &other)
{
    if (this != &other)
        *this = Json(other);
    return *this;
}

Json
Json::object()
{
    Json json;
    json.kind_ = Kind::Object;
    return json;
}

Json
Json::array()
{
    Json json;
    json.kind_ = Kind::Array;
    return json;
}

Json &
Json::operator[](const std::string &key)
{
    if (kind_ == Kind::Null)
        kind_ = Kind::Object;
    if (kind_ != Kind::Object)
        panic("Json: operator[] on a non-object");
    auto [it, inserted] = members_.try_emplace(key);
    if (inserted)
        order_.push_back(&*it);
    return it->second;
}

bool
Json::parse(const std::string &text, Json &out, std::string *error)
{
    return JsonParser(text).parse(out, error);
}

const Json *
Json::find(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    const auto it = members_.find(key);
    return it == members_.end() ? nullptr : &it->second;
}

std::vector<std::string>
Json::keys() const
{
    std::vector<std::string> keys;
    keys.reserve(order_.size());
    for (const Member *member : order_)
        keys.push_back(member->first);
    return keys;
}

const Json &
Json::at(std::size_t index) const
{
    if (kind_ != Kind::Array || index >= array_.size())
        panic("Json: at() out of range");
    return array_[index];
}

Json &
Json::push(Json value)
{
    if (kind_ == Kind::Null)
        kind_ = Kind::Array;
    if (kind_ != Kind::Array)
        panic("Json: push on a non-array");
    array_.push_back(std::move(value));
    return array_.back();
}

std::size_t
Json::size() const
{
    if (kind_ == Kind::Array)
        return array_.size();
    if (kind_ == Kind::Object)
        return members_.size();
    return 0;
}

void
Json::writeEscaped(std::string &out, const std::string &text)
{
    out += '"';
    // Plain runs are appended whole; only escapes break them up.
    const char *run = text.data();
    const char *const end = text.data() + text.size();
    for (const char *p = run; p != end; ++p) {
        const unsigned char c = static_cast<unsigned char>(*p);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(run, p);
        run = p + 1;
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default: {
            char buffer[8];
            std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
            out += buffer;
          }
        }
    }
    out.append(run, end);
    out += '"';
}

void
Json::writeNumber(std::string &out, double value)
{
    if (!std::isfinite(value)) {
        out += "null"; // JSON has no inf/nan
        return;
    }
    char buffer[32];
    if (value == std::floor(value) &&
        std::fabs(value) < 9.0e15) {
        const auto written =
            std::to_chars(buffer, buffer + sizeof(buffer),
                          static_cast<long long>(value));
        out.append(buffer, written.ptr);
        return;
    }
    const int length =
        std::snprintf(buffer, sizeof(buffer), "%.12g", value);
    out.append(buffer, static_cast<std::size_t>(length));
}

namespace {

/** Serialized bytes collected before dump() writes them out. Small:
 * timelines are dumped from every worker thread at once. */
constexpr std::size_t kDumpChunk = 4 * 1024;

void
flush(std::string &out, std::ostream &os)
{
    os.write(out.data(), static_cast<std::streamsize>(out.size()));
    out.clear();
}

} // namespace

void
Json::dump(std::ostream &os, int indent) const
{
    std::string out;
    write(out, os, indent);
    flush(out, os);
}

void
Json::write(std::string &out, std::ostream &os, int indent) const
{
    const auto pad = [&out](int depth) {
        out.append(static_cast<std::size_t>(depth) * 2, ' ');
    };
    switch (kind_) {
      case Kind::Null: out += "null"; break;
      case Kind::Bool: out += bool_ ? "true" : "false"; break;
      case Kind::Number: writeNumber(out, number_); break;
      case Kind::String: writeEscaped(out, string_); break;
      case Kind::Array: {
        if (array_.empty()) {
            out += "[]";
            break;
        }
        out += "[\n";
        for (std::size_t i = 0; i < array_.size(); ++i) {
            pad(indent + 1);
            array_[i].write(out, os, indent + 1);
            out += i + 1 < array_.size() ? ",\n" : "\n";
            if (out.size() >= kDumpChunk)
                flush(out, os);
        }
        pad(indent);
        out += ']';
        break;
      }
      case Kind::Object: {
        if (order_.empty()) {
            out += "{}";
            break;
        }
        out += "{\n";
        for (std::size_t i = 0; i < order_.size(); ++i) {
            pad(indent + 1);
            writeEscaped(out, order_[i]->first);
            out += ": ";
            order_[i]->second.write(out, os, indent + 1);
            out += i + 1 < order_.size() ? ",\n" : "\n";
            if (out.size() >= kDumpChunk)
                flush(out, os);
        }
        pad(indent);
        out += '}';
        break;
      }
    }
}

} // namespace pcap
