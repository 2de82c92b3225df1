#include "core/types.hpp"

#include <charconv>
#include <cstdio>

namespace harmony {

void to_string(const Value& v, std::string& out) {
  char buf[64];
  if (std::holds_alternative<std::int64_t>(v)) {
    const auto r = std::to_chars(buf, buf + sizeof(buf), std::get<std::int64_t>(v));
    out.append(buf, static_cast<std::size_t>(r.ptr - buf));
  } else if (std::holds_alternative<double>(v)) {
    // "%g" matches `ostringstream << double` (6 significant digits) — the
    // rendering the golden fixtures were recorded with.
    const int n = std::snprintf(buf, sizeof(buf), "%g", std::get<double>(v));
    if (n > 0) out.append(buf, static_cast<std::size_t>(n));
  } else {
    out.append(std::get<std::string>(v));
  }
}

std::string to_string(const Value& v) {
  std::string out;
  to_string(v, out);
  return out;
}

std::string to_string(const Config& c, const std::vector<std::string>& names) {
  std::string out;
  for (std::size_t i = 0; i < c.values.size(); ++i) {
    if (i != 0) out += ' ';
    if (i < names.size()) {
      out += names[i];
      out += '=';
    }
    to_string(c.values[i], out);
  }
  return out;
}

}  // namespace harmony
