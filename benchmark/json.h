#pragma once
/// \file json.h
/// The small JSON subset tpf-bench needs: parsing BENCHMARK.json and the
/// recorded digests, and formatting numbers and strings for its own output.

#include <string>
#include <utility>
#include <vector>

namespace tpfbench {

struct Json {
    enum Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<Json> items;                          ///< Array
    std::vector<std::pair<std::string, Json>> fields; ///< Object, file order

    /// Member \p key of an object, nullptr when absent or not an object.
    const Json* get(const std::string& key) const;
};

/// Parse a complete JSON document; throws std::runtime_error on bad input.
Json parseJson(const std::string& text);
Json readJsonFile(const std::string& path);

/// \p s as a quoted JSON string.
std::string jsonString(const std::string& s);
/// \p v with all 17 significant digits (non-finite values become null).
std::string jsonNumber(double v);

} // namespace tpfbench
