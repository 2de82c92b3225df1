#include "core/protocol.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace harmony::proto {

namespace {

constexpr std::string_view kSpaces = " \t";

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const auto pos = s.find(sep, start);
    const auto end = pos == std::string_view::npos ? s.size() : pos;
    if (end > start) out.emplace_back(s.substr(start, end - start));
    if (pos == std::string_view::npos) break;
    start = pos + 1;
  }
  return out;
}

/// Append one Value without heap allocation. Doubles use "%.17g", which
/// round-trips every double exactly (the form REPORT and RESULT values
/// already take), so a client evaluates the very point the server records;
/// to_string(v)'s "%g" keeps 6 digits. Integers and labels use to_string.
void append_value(const Value& v, std::string& out) {
  if (const double* d = std::get_if<double>(&v)) {
    char buf[32];
    const int n = std::snprintf(buf, sizeof(buf), "%.17g", *d);
    out.append(buf, static_cast<std::size_t>(n));
    return;
  }
  harmony::to_string(v, out);
}

}  // namespace

std::optional<std::int64_t> parse_i64(std::string_view s) {
  std::int64_t v{};
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

std::optional<double> parse_f64(std::string_view s) {
  if (s.empty()) return std::nullopt;
  // std::from_chars<double> is not universally available; strtod needs a
  // terminated buffer. Protocol number fields are short, so a stack copy
  // keeps this allocation-free.
  char buf[64];
  if (s.size() >= sizeof(buf)) return std::nullopt;
  s.copy(buf, s.size());
  buf[s.size()] = '\0';
  char* end = nullptr;
  const double v = std::strtod(buf, &end);
  if (end != buf + s.size()) return std::nullopt;
  return v;
}

bool is_trace_token(std::string_view field) noexcept {
  return field.size() > 2 && field[0] == 'T' && field[1] == '=';
}

std::optional<obs::TraceContext> parse_trace(std::string_view field) noexcept {
  if (!is_trace_token(field)) return std::nullopt;
  const std::string_view body = field.substr(2);
  const auto dash = body.find('-');
  if (dash == std::string_view::npos || dash == 0 || dash + 1 >= body.size()) {
    return std::nullopt;
  }
  const auto parse_hex = [](std::string_view s) -> std::optional<std::uint64_t> {
    if (s.empty() || s.size() > 16) return std::nullopt;
    std::uint64_t v{};
    const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v, 16);
    if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
    return v;
  };
  const auto trace = parse_hex(body.substr(0, dash));
  const auto span = parse_hex(body.substr(dash + 1));
  if (!trace || !span || *trace == 0) return std::nullopt;
  obs::TraceContext ctx;
  ctx.trace_id = *trace;
  ctx.span_id = *span;
  return ctx;
}

void append_trace(const obs::TraceContext& ctx, std::string& out) {
  if (!ctx.sampled()) return;
  char buf[40];
  const int n = std::snprintf(buf, sizeof(buf), " T=%016llx-%016llx",
                              static_cast<unsigned long long>(ctx.trace_id),
                              static_cast<unsigned long long>(ctx.span_id));
  out.append(buf, static_cast<std::size_t>(n));
}

bool parse_line(std::string_view line, MessageView& out) {
  out.verb = {};
  out.args.clear();
  std::size_t pos = line.find_first_not_of(kSpaces);
  while (pos != std::string_view::npos) {
    auto end = line.find_first_of(kSpaces, pos);
    if (end == std::string_view::npos) end = line.size();
    const auto field = line.substr(pos, end - pos);
    if (out.verb.empty() && out.args.empty()) {
      out.verb = field;
    } else {
      out.args.push_back(field);
    }
    pos = line.find_first_not_of(kSpaces, end);
  }
  return !out.verb.empty();
}

std::string encode_config(const ParamSpace& space, const Config& c) {
  std::string out;
  encode_config(space, c, out);
  return out;
}

void encode_config(const ParamSpace& space, const Config& c, std::string& out) {
  (void)space;
  for (std::size_t i = 0; i < c.values.size(); ++i) {
    if (i != 0) out += ' ';
    append_value(c.values[i], out);
  }
}

std::optional<Config> decode_config(const ParamSpace& space, const MessageView& m,
                                    std::size_t skip) {
  if (m.args.size() < skip || m.args.size() - skip != space.dim()) return std::nullopt;
  Config c;
  c.values.reserve(space.dim());
  for (std::size_t i = 0; i < space.dim(); ++i) {
    const auto& p = space.param(i);
    const std::string_view field = m.args[skip + i];
    switch (p.type()) {
      case ParamType::Int: {
        const auto v = parse_i64(field);
        if (!v || !p.contains(Value{*v})) return std::nullopt;
        c.values.emplace_back(*v);
        break;
      }
      case ParamType::Real: {
        const auto v = parse_f64(field);
        if (!v || !p.contains(Value{*v})) return std::nullopt;
        c.values.emplace_back(*v);
        break;
      }
      case ParamType::Enum: {
        std::string label(field);
        if (!p.contains(Value{label})) return std::nullopt;
        c.values.emplace_back(std::move(label));
        break;
      }
    }
  }
  return c;
}

void encode_work(const ParamSpace& space, std::uint64_t work_id, const Config& c,
                 std::string& out) {
  char buf[32];
  out.append("WORK ");
  const auto r = std::to_chars(buf, buf + sizeof(buf), work_id);
  out.append(buf, static_cast<std::size_t>(r.ptr - buf));
  out.push_back(' ');
  encode_config(space, c, out);
  out.push_back('\n');
}

std::string encode_param(const Parameter& p) {
  std::string out = "PARAM ";
  switch (p.type()) {
    case ParamType::Int:
      out += "INT ";
      out += p.name();
      out += ' ';
      append_value(Value{p.int_lo()}, out);
      out += ' ';
      append_value(Value{p.int_hi()}, out);
      out += ' ';
      append_value(Value{p.int_step()}, out);
      break;
    case ParamType::Real:
      out += "REAL ";
      out += p.name();
      out += ' ';
      append_value(Value{p.real_lo()}, out);
      out += ' ';
      append_value(Value{p.real_hi()}, out);
      break;
    case ParamType::Enum: {
      out += "ENUM ";
      out += p.name();
      out += ' ';
      const auto& cs = p.choices();
      for (std::size_t i = 0; i < cs.size(); ++i) {
        if (i != 0) out += ',';
        out += cs[i];
      }
      break;
    }
  }
  return out;
}

std::optional<Parameter> decode_param(const MessageView& m) {
  const auto& args = m.args;
  if (args.size() < 2) return std::nullopt;
  const std::string_view kind = args[0];
  const std::string name(args[1]);
  try {
    if (kind == "INT") {
      if (args.size() != 5) return std::nullopt;
      const auto lo = parse_i64(args[2]);
      const auto hi = parse_i64(args[3]);
      const auto step = parse_i64(args[4]);
      if (!lo || !hi || !step) return std::nullopt;
      return Parameter::Integer(name, *lo, *hi, *step);
    }
    if (kind == "REAL") {
      if (args.size() != 4) return std::nullopt;
      const auto lo = parse_f64(args[2]);
      const auto hi = parse_f64(args[3]);
      if (!lo || !hi) return std::nullopt;
      return Parameter::Real(name, *lo, *hi);
    }
    if (kind == "ENUM") {
      if (args.size() != 3) return std::nullopt;
      auto choices = split(args[2], ',');
      if (choices.empty()) return std::nullopt;
      return Parameter::Enum(name, std::move(choices));
    }
  } catch (const std::exception&) {
    return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace harmony::proto
