/**
 * @file
 * A minimal JSON reader/writer for the scalehls-serve wire protocol
 * (newline-delimited JSON requests and responses) and for tests that
 * parse responses back. Supports objects, arrays, strings, numbers,
 * booleans and null — no comments, no trailing commas. Numbers are kept
 * as doubles (the protocol's integers are well within 2^53).
 */

#ifndef SCALEHLS_SUPPORT_JSON_H
#define SCALEHLS_SUPPORT_JSON_H

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace scalehls {

/** One parsed JSON value. Object members keep the map's sorted order
 * (the protocol never depends on member order). */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Object,
        Array
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0;
    std::string string;
    std::map<std::string, JsonValue> object;
    std::vector<JsonValue> array;

    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    int64_t asInt() const { return static_cast<int64_t>(number); }

    /** The member of an object, or nullptr. */
    const JsonValue *
    get(const std::string &key) const
    {
        if (kind != Kind::Object)
            return nullptr;
        auto it = object.find(key);
        return it == object.end() ? nullptr : &it->second;
    }
};

/** Deepest object/array nesting parseJson accepts: far above any
 * protocol or reproducer document (a few levels), far below what would
 * overflow a worker thread's stack. */
constexpr size_t kMaxJsonDepth = 512;

/** Parse one JSON document; nullopt on any syntax error (including
 * trailing non-whitespace) and on nesting deeper than kMaxJsonDepth. */
std::optional<JsonValue> parseJson(const std::string &text);

/** Escape @p text for embedding inside a JSON string literal (adds no
 * surrounding quotes). */
std::string jsonEscape(const std::string &text);

} // namespace scalehls

#endif // SCALEHLS_SUPPORT_JSON_H
