#pragma once

/// \file types.hpp
/// Fundamental value/configuration types shared across the Active Harmony
/// reproduction. A tunable parameter takes one of three native value kinds:
/// a 64-bit integer, a double, or an enumeration label (stored as a string).

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace harmony {

/// Native value of one tunable parameter.
using Value = std::variant<std::int64_t, double, std::string>;

/// A configuration is one concrete assignment of every parameter in a
/// ParamSpace, stored positionally (index i holds the value of parameter i).
struct Config {
  std::vector<Value> values;

  bool operator==(const Config& other) const = default;

  [[nodiscard]] bool empty() const noexcept { return values.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return values.size(); }
};

/// Render a single value for logs (the wire protocol renders doubles
/// exactly; see proto::encode_config).
[[nodiscard]] std::string to_string(const Value& v);

/// Append-into-buffer variant for hot paths (the wire encoder, cache-key
/// rendering): appends the same text `to_string(v)` returns — ints verbatim,
/// doubles in %g with 6 significant digits, enum labels as-is — without
/// allocating intermediate strings.
void to_string(const Value& v, std::string& out);

/// Render a configuration as "name=value name=value ..." given names; if
/// names are unavailable pass an empty vector to get positional "v0 v1 ...".
[[nodiscard]] std::string to_string(const Config& c,
                                    const std::vector<std::string>& names = {});

}  // namespace harmony
