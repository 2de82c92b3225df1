#include "core/protocol.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "obs/trace.hpp"

namespace {

using harmony::Config;
using harmony::Parameter;
using harmony::ParamSpace;
namespace proto = harmony::proto;

TEST(Protocol, ParseSimpleLine) {
  const std::string line = "REPORT 3.25";
  proto::MessageView m;
  ASSERT_TRUE(proto::parse_line(line, m));
  EXPECT_EQ(m.verb, "REPORT");
  ASSERT_EQ(m.args.size(), 1u);
  EXPECT_EQ(m.args[0], "3.25");
}

TEST(Protocol, ParseEmptyLineIsNull) {
  proto::MessageView m;
  EXPECT_FALSE(proto::parse_line("", m));
  EXPECT_FALSE(proto::parse_line("   ", m));
  EXPECT_TRUE(m.verb.empty());
  EXPECT_TRUE(m.args.empty());
}

TEST(Protocol, ParseCollapsesWhitespace) {
  const std::string line = "  PARAM   INT  x  1 9  1 ";
  proto::MessageView m;
  ASSERT_TRUE(proto::parse_line(line, m));
  EXPECT_EQ(m.verb, "PARAM");
  EXPECT_EQ(m.args.size(), 5u);
}

// Joining a view's fields with single spaces and tokenizing again gives
// the same fields.
TEST(Protocol, FormatRoundtrip) {
  const std::string line = "CONFIG 1 0.5 yxles";
  proto::MessageView m;
  ASSERT_TRUE(proto::parse_line(line, m));
  std::string joined(m.verb);
  for (const auto a : m.args) {
    joined += ' ';
    joined += a;
  }
  EXPECT_EQ(joined, line);
  proto::MessageView again;
  ASSERT_TRUE(proto::parse_line(joined, again));
  EXPECT_EQ(again.verb, "CONFIG");
  EXPECT_EQ(again.args, (std::vector<std::string_view>{"1", "0.5", "yxles"}));
}

ParamSpace demo_space() {
  ParamSpace s;
  s.add(Parameter::Integer("n", 1, 64, 1));
  s.add(Parameter::Real("alpha", 0.0, 2.0));
  s.add(Parameter::Enum("layout", {"lxyes", "yxles"}));
  return s;
}

// Decode the space-separated `fields` of a CONFIG line, as a client does.
std::optional<Config> decode_config_fields(const ParamSpace& s,
                                           const std::string& fields) {
  std::string line = "CONFIG ";
  line += fields;
  proto::MessageView m;
  if (!proto::parse_line(line, m)) return std::nullopt;
  return proto::decode_config(s, m);
}

// Decode the space-separated `fields` of a PARAM line, as the server does.
std::optional<Parameter> decode_param_fields(const std::string& fields) {
  std::string line = "PARAM ";
  line += fields;
  proto::MessageView m;
  if (!proto::parse_line(line, m)) return std::nullopt;
  return proto::decode_param(m);
}

TEST(Protocol, EncodeDecodeConfigRoundtrip) {
  const auto s = demo_space();
  const Config c = s.snap({10.0, 1.25, 1.0});
  const auto decoded = decode_config_fields(s, proto::encode_config(s, c));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, c);
}

// A WORK line decodes its fields after the work id in place.
TEST(Protocol, DecodeConfigSkipsLeadingFields) {
  const auto s = demo_space();
  const Config c = s.snap({10.0, 1.25, 1.0});
  std::string line;
  proto::encode_work(s, 7, c, line);
  line.pop_back();  // the newline
  proto::MessageView m;
  ASSERT_TRUE(proto::parse_line(line, m));
  EXPECT_EQ(m.verb, "WORK");
  const auto decoded = proto::decode_config(s, m, /*skip=*/1);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, c);
  EXPECT_FALSE(proto::decode_config(s, m).has_value());      // the id is a field
  EXPECT_FALSE(proto::decode_config(s, m, 2).has_value());   // one field short
  EXPECT_FALSE(proto::decode_config(s, m, 9).has_value());   // skip past the end
}

TEST(Protocol, DecodeConfigWrongArityFails) {
  const auto s = demo_space();
  EXPECT_FALSE(decode_config_fields(s, "1 0.5").has_value());
}

TEST(Protocol, DecodeConfigBadIntFails) {
  const auto s = demo_space();
  EXPECT_FALSE(decode_config_fields(s, "abc 0.5 lxyes").has_value());
  EXPECT_FALSE(decode_config_fields(s, "999 0.5 lxyes").has_value());
}

TEST(Protocol, DecodeConfigBadRealFails) {
  const auto s = demo_space();
  EXPECT_FALSE(decode_config_fields(s, "1 zz lxyes").has_value());
  EXPECT_FALSE(decode_config_fields(s, "1 99.0 lxyes").has_value());
}

TEST(Protocol, DecodeConfigBadEnumFails) {
  const auto s = demo_space();
  EXPECT_FALSE(decode_config_fields(s, "1 0.5 bogus").has_value());
}

TEST(Protocol, EncodeParamInt) {
  const auto p = Parameter::Integer("n", 1, 64, 2);
  EXPECT_EQ(proto::encode_param(p), "PARAM INT n 1 63 2");
}

TEST(Protocol, EncodeParamReal) {
  const auto p = Parameter::Real("a", 0.5, 2.5);
  EXPECT_EQ(proto::encode_param(p), "PARAM REAL a 0.5 2.5");
}

TEST(Protocol, EncodeParamEnum) {
  const auto p = Parameter::Enum("mode", {"x", "y", "z"});
  EXPECT_EQ(proto::encode_param(p), "PARAM ENUM mode x,y,z");
}

TEST(Protocol, DecodeParamRoundtripInt) {
  const auto p = Parameter::Integer("n", -4, 12, 2);
  const std::string line = proto::encode_param(p);
  proto::MessageView m;
  ASSERT_TRUE(proto::parse_line(line, m));
  const auto decoded = proto::decode_param(m);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->int_lo(), -4);
  EXPECT_EQ(decoded->int_hi(), 12);
  EXPECT_EQ(decoded->int_step(), 2);
}

TEST(Protocol, DecodeParamRoundtripEnum) {
  const auto p = Parameter::Enum("layout", {"lxyes", "yxles", "yxels"});
  const std::string line = proto::encode_param(p);
  proto::MessageView m;
  ASSERT_TRUE(proto::parse_line(line, m));
  const auto decoded = proto::decode_param(m);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->choices(), p.choices());
}

TEST(Protocol, DecodeParamRoundtripReal) {
  const auto p = Parameter::Real("alpha", -1.5, 3.5);
  const std::string line = proto::encode_param(p);
  proto::MessageView m;
  ASSERT_TRUE(proto::parse_line(line, m));
  const auto decoded = proto::decode_param(m);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_DOUBLE_EQ(decoded->real_lo(), -1.5);
  EXPECT_DOUBLE_EQ(decoded->real_hi(), 3.5);
}

// REAL values cross the wire as the very doubles the server holds: a client
// that decodes a CONFIG line evaluates the point History records, and a
// PARAM line's bounds survive registration unrounded.
TEST(Protocol, RealValuesRoundTripExactly) {
  const double lo = 1.0 / 3.0;
  const double hi = 1.2345678901;
  const auto p = Parameter::Real("alpha", lo, hi);
  const std::string line = proto::encode_param(p);
  proto::MessageView m;
  ASSERT_TRUE(proto::parse_line(line, m));
  const auto param = proto::decode_param(m);
  ASSERT_TRUE(param.has_value());
  EXPECT_EQ(param->real_lo(), lo);  // bitwise
  EXPECT_EQ(param->real_hi(), hi);

  ParamSpace s;
  s.add(p);
  for (const double v : {lo, hi, 0.1 + 0.7, 2.0 / 3.0}) {
    Config c;
    c.values.emplace_back(v);
    const auto decoded = decode_config_fields(s, proto::encode_config(s, c));
    ASSERT_TRUE(decoded.has_value()) << proto::encode_config(s, c);
    EXPECT_EQ(std::get<double>(decoded->values[0]), v);  // bitwise
  }
}

TEST(Protocol, DecodeParamMalformedFails) {
  EXPECT_FALSE(decode_param_fields("").has_value());
  EXPECT_FALSE(decode_param_fields("INT").has_value());
  EXPECT_FALSE(decode_param_fields("INT x a b c").has_value());
  EXPECT_FALSE(decode_param_fields("INT x 5 1 1").has_value());  // lo>hi
  EXPECT_FALSE(decode_param_fields("REAL x 1").has_value());
  EXPECT_FALSE(decode_param_fields("ENUM x").has_value());
  EXPECT_FALSE(decode_param_fields("BLOB x 1 2").has_value());
}

TEST(Protocol, DecodeParamTrailingGarbageFails) {
  EXPECT_FALSE(decode_param_fields("INT x 1 10 1 extra").has_value());
}

TEST(Protocol, TraceContextTokenRoundTrips) {
  harmony::obs::TraceContext ctx;
  ctx.trace_id = 0xdeadbeefcafef00dULL;
  ctx.span_id = 0x0000000000000001ULL;
  std::string line = "REPORT+FETCH 3.25";
  proto::append_trace(ctx, line);
  EXPECT_EQ(line, "REPORT+FETCH 3.25 T=deadbeefcafef00d-0000000000000001");

  proto::MessageView m;
  ASSERT_TRUE(proto::parse_line(line, m));
  ASSERT_EQ(m.args.size(), 2u);
  ASSERT_TRUE(proto::is_trace_token(m.args.back()));
  const auto parsed = proto::parse_trace(m.args.back());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->trace_id, ctx.trace_id);
  EXPECT_EQ(parsed->span_id, ctx.span_id);
  EXPECT_TRUE(parsed->sampled());
}

TEST(Protocol, TraceContextTokenRejectsMalformed) {
  // Not a token at all: parse_trace refuses, is_trace_token refuses.
  EXPECT_FALSE(proto::is_trace_token("3.25"));
  EXPECT_FALSE(proto::is_trace_token("T="));
  EXPECT_FALSE(proto::parse_trace("REPORT").has_value());
  // Token-shaped but invalid bodies.
  EXPECT_FALSE(proto::parse_trace("T=deadbeef").has_value());          // no dash
  EXPECT_FALSE(proto::parse_trace("T=-deadbeef").has_value());         // empty trace
  EXPECT_FALSE(proto::parse_trace("T=deadbeef-").has_value());         // empty span
  EXPECT_FALSE(proto::parse_trace("T=xyzw-0123").has_value());         // non-hex
  EXPECT_FALSE(proto::parse_trace("T=0123zz-0123").has_value());       // non-hex tail
  EXPECT_FALSE(proto::parse_trace("T=00000000000000000-1").has_value());  // 17 digits
  // trace_id 0 means "unsampled" and is never a valid wire token.
  EXPECT_FALSE(
      proto::parse_trace("T=0000000000000000-0000000000000001").has_value());
}

TEST(Protocol, TraceContextAppendIsNoopWhenUnsampled) {
  harmony::obs::TraceContext ctx;  // trace_id 0: unsampled
  std::string line = "FETCH";
  proto::append_trace(ctx, line);
  EXPECT_EQ(line, "FETCH");  // old clients' lines stay byte-identical
}

}  // namespace
