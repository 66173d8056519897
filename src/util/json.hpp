/**
 * @file
 * Minimal JSON document support used by the bench driver: a builder
 * for machine-readable results (BENCH_RESULTS.json) and a small
 * recursive-descent parser for the few documents the harness reads
 * back in (alert rule files, see obs/alerts.hpp). Objects keep
 * insertion order in both directions, so emitted documents diff
 * cleanly and re-emitted ones round-trip.
 */

#ifndef PCAP_UTIL_JSON_HPP
#define PCAP_UTIL_JSON_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace pcap {

/**
 * A JSON value: null, bool, number, string, array or object.
 * Objects keep insertion order so emitted documents diff cleanly.
 */
class Json
{
  public:
    Json() : kind_(Kind::Null) {}
    Json(bool value) : kind_(Kind::Bool), bool_(value) {}
    Json(double value) : kind_(Kind::Number), number_(value) {}
    Json(int value) : Json(static_cast<double>(value)) {}
    Json(long value) : Json(static_cast<double>(value)) {}
    Json(long long value) : Json(static_cast<double>(value)) {}
    Json(unsigned value) : Json(static_cast<double>(value)) {}
    Json(unsigned long value)
        : Json(static_cast<double>(value)) {}
    Json(unsigned long long value)
        : Json(static_cast<double>(value)) {}
    Json(const char *value) : kind_(Kind::String), string_(value) {}
    Json(std::string value)
        : kind_(Kind::String), string_(std::move(value)) {}

    /** Copies re-point the member order at their own members; moves
     * keep the map nodes, and with them the order. */
    Json(const Json &other);
    Json(Json &&) = default;
    Json &operator=(const Json &other);
    Json &operator=(Json &&) = default;

    /** An empty object (distinct from null). */
    static Json object();

    /** An empty array (distinct from null). */
    static Json array();

    /**
     * Parse @p text as one JSON document (leading/trailing
     * whitespace allowed, nothing else may follow). On success @p out
     * holds the document and the call returns true; on malformed
     * input it returns false and, when @p error is non-null, fills it
     * with "offset N: problem".
     */
    static bool parse(const std::string &text, Json &out,
                      std::string *error = nullptr);

    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** The boolean payload; @p fallback for non-bools. */
    bool asBool(bool fallback = false) const
    {
        return kind_ == Kind::Bool ? bool_ : fallback;
    }

    /** The numeric payload; @p fallback for non-numbers. */
    double asDouble(double fallback = 0.0) const
    {
        return kind_ == Kind::Number ? number_ : fallback;
    }

    /** The string payload; empty for non-strings. */
    const std::string &asString() const { return string_; }

    /** Member @p key of an object, or nullptr when absent (or when
     * this value is not an object). */
    const Json *find(const std::string &key) const;

    /** Element @p index of an array; panics out of range. */
    const Json &at(std::size_t index) const;

    /** Object keys in insertion order; empty for non-objects. */
    std::vector<std::string> keys() const;

    /** Object access; creates the key (and objectifies null). */
    Json &operator[](const std::string &key);

    /** Append to an array (arrayifies null). */
    Json &push(Json value);

    /** Number of children of an array/object; 0 otherwise. */
    std::size_t size() const;

    /** Serialize with 2-space indentation. */
    void dump(std::ostream &os, int indent = 0) const;

  private:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    using Member = std::pair<const std::string, Json>;

    /** Append the serialization of this value to @p out, handing
     * it to @p os whenever it has grown past a flush threshold. */
    void write(std::string &out, std::ostream &os, int indent) const;
    static void writeEscaped(std::string &out, const std::string &text);
    static void writeNumber(std::string &out, double value);

    Kind kind_;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<Json> array_;
    std::map<std::string, Json> members_;
    std::vector<const Member *> order_; ///< members_ by insertion
};

} // namespace pcap

#endif // PCAP_UTIL_JSON_HPP
