// Seeded, bounded wire fuzzer for the two socket-free pieces of the server's
// read path: net::LineBuffer, the one line framer every reader uses, and
// ServerConnection::handle_line, the protocol state machine. There is no
// libFuzzer here: a fixed seed and fixed iteration counts make it an
// ordinary test, which the sanitizer builds run like every other.
//
// The corpus is recorded sessions (one per registry strategy on the GS2
// space the perf ledger tunes, with the server's replies), a pipelined
// REPORT+FETCH burst with trace tokens, and TENANT/ATTACH/STRATEGY lines.
// - Framing: each corpus stream, split at random byte boundaries, must come
//   out of a LineBuffer exactly as a one-shot split of the whole stream.
// - Protocol: byte-mutated sessions (flip, insert, delete, splice) go
//   through a LineBuffer into a fresh ServerConnection. Nothing may throw,
//   and every reply must be whole '\n'-terminated lines.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "core/net.hpp"
#include "core/rng.hpp"
#include "core/server.hpp"
#include "core/server_session.hpp"
#include "core/strategy_registry.hpp"

namespace {

using harmony::Rng;
using harmony::ServerConnection;
using harmony::ServerOptions;
using harmony::net::LineBuffer;

constexpr std::uint64_t kSeed = 20061027;
constexpr int kSplitsPerStream = 200;
constexpr int kMutatedSessions = 20000;

using Lines = std::vector<std::string>;

std::string join(const Lines& lines, std::string_view terminator) {
  std::string s;
  for (const auto& line : lines) {
    s += line;
    s += terminator;
  }
  return s;
}

/// Reference framing of a whole stream: '\n'-terminated lines, one trailing
/// '\r' stripped; an unterminated tail is not a line.
Lines split_whole(std::string_view stream) {
  Lines lines;
  for (std::size_t nl; (nl = stream.find('\n')) != std::string_view::npos;) {
    std::string_view line = stream.substr(0, nl);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    lines.emplace_back(line);
    stream.remove_prefix(nl + 1);
  }
  return lines;
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  return h;
}

/// Drive one complete session of `strategy` on the GS2 space and record the
/// client's lines; the server's replies are appended to `replies`.
Lines record_session(const std::string& strategy, std::string& replies) {
  const ServerOptions opts;
  ServerConnection conn(opts, 1);
  Lines sent;
  std::string out;
  const auto send = [&](std::string line) {
    out.clear();
    (void)conn.handle_line(line, out);
    replies += out;
    sent.push_back(std::move(line));
    return out;
  };
  send("HELLO fuzz-" + strategy);
  send("PARAM INT negrid 4 16 1");
  send("PARAM INT ntheta 10 32 2");
  send("PARAM INT nodes 1 64 1");
  send("STRATEGY " + strategy);
  send("START 24");
  std::string reply = send("FETCH");
  for (int i = 0; reply.rfind("CONFIG", 0) == 0 && i < 40; ++i) {
    char value[32];
    std::snprintf(value, sizeof(value), "%.6g",
                  static_cast<double>(fnv1a(reply) % 100000) / 100.0);
    if (i % 3 == 2) {
      send(std::string("REPORT ") + value);
      reply = send("FETCH");
    } else {
      reply = send(std::string("REPORT+FETCH ") + value);
    }
  }
  send("BEST");
  send("STATUS");
  send("LOG tail 2");
  send("BYE");
  return sent;
}

struct Corpus {
  std::vector<Lines> sessions;  ///< client line sequences (mutation seeds)
  std::vector<std::string> streams;  ///< byte streams for the framer
};

Corpus make_corpus() {
  Corpus c;
  std::string replies;
  for (const auto& name : harmony::StrategyRegistry::names()) {
    c.sessions.push_back(record_session(name, replies));
  }
  c.streams.push_back(replies);

  Lines burst = {"HELLO burst", "PARAM REAL x 0 10", "PARAM REAL y 0 10",
                 "START 200", "FETCH"};
  for (int i = 0; i < 64; ++i) {
    std::string line = "REPORT+FETCH " + std::to_string(1000 - i);
    if (i % 3 == 0) {
      line += " T=0123456789abcdef-0fedcba98765432";
      line += std::to_string(i % 10);
    }
    burst.push_back(std::move(line));
  }
  burst.emplace_back("BYE");
  c.sessions.push_back(std::move(burst));

  c.sessions.push_back({"HELLO tenant-app",
                        "TENANT t0",
                        "ATTACH synthetic 2",
                        "RESULT 1 0.5 0.001",
                        "PING",
                        "DETACH",
                        "STRATEGY genetic population=8 mutation=0.25 seed=3",
                        "STRATEGY",
                        "PARAM INT a 1 64 1",
                        "PARAM INT b 1 64 1",
                        "START 10",
                        "FETCH",
                        "REPORT 1.5 T=0123456789abcdef-0fedcba987654321",
                        "FETCH T=00000000000000ab-00000000000000cd",
                        "REPORT+FETCH 2.25 T=00000000000000ab-00000000000000ce",
                        "BEST",
                        "METRICS",
                        "LOG 1",
                        "BYE"});

  for (const auto& s : c.sessions) {
    c.streams.push_back(join(s, "\n"));
    c.streams.push_back(join(s, "\r\n") + "partial tail");
  }
  return c;
}

const Corpus& corpus() {
  static const Corpus c = make_corpus();
  return c;
}

/// Feed `stream` to `buf` in random-sized pieces, alternating append() with
/// prepare()/commit(), and hand every line to `on_line` as it completes.
/// Stops early when `on_line` returns false.
template <typename OnLine>
void feed_in_pieces(std::string_view stream, Rng& rng, LineBuffer& buf,
                    const OnLine& on_line) {
  std::size_t at = 0;
  while (at < stream.size()) {
    const auto max_piece = rng.uniform_int(0, 3) == 0 ? 1 : 97;
    const auto n = std::min<std::size_t>(
        stream.size() - at, static_cast<std::size_t>(rng.uniform_int(1, max_piece)));
    if (rng.uniform_int(0, 1) == 0) {
      buf.append(stream.substr(at, n));
    } else {
      std::memcpy(buf.prepare(n), stream.data() + at, n);
      buf.commit(n);
    }
    at += n;
    while (const auto line = buf.pop_line()) {
      if (!on_line(*line)) return;
    }
  }
}

TEST(WireFuzz, RandomSplitsFrameLikeAOneShotSplit) {
  Rng rng(kSeed);
  for (const auto& stream : corpus().streams) {
    const Lines want = split_whole(stream);
    const std::size_t tail = stream.size() - (stream.rfind('\n') + 1);
    for (int round = 0; round < kSplitsPerStream; ++round) {
      LineBuffer buf;
      Lines got;
      feed_in_pieces(stream, rng, buf, [&](std::string_view line) {
        got.emplace_back(line);
        return true;
      });
      ASSERT_EQ(got, want) << "round " << round;
      EXPECT_EQ(buf.size(), tail);
      EXPECT_FALSE(buf.overflowed());
    }
  }
}

/// Bytes a mutation inserts: protocol punctuation, digits, letters and
/// control bytes, terminators included.
constexpr char kInsertRaw[] = " =+-.:\t\r\n0123456789eEfTx\0\xff"
                              "ABCDEFGHIJKLMNOPQRSTUVWXYZ";
constexpr std::string_view kInsertBytes(kInsertRaw, sizeof(kInsertRaw) - 1);

/// Uniform index in [0, n).
std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

void mutate(Lines& lines, const Corpus& c, Rng& rng) {
  const int edits = static_cast<int>(rng.uniform_int(1, 4));
  for (int e = 0; e < edits; ++e) {
    std::string& line = lines[pick(rng, lines.size())];
    const std::size_t at = pick(rng, line.size() + 1);  // a byte, or the end
    switch (rng.uniform_int(0, 3)) {
      case 0:  // flip one bit
        if (at < line.size()) line[at] ^= static_cast<char>(1 << pick(rng, 8));
        break;
      case 1:  // insert a byte
        line.insert(at, 1, kInsertBytes[pick(rng, kInsertBytes.size())]);
        break;
      case 2:  // delete a byte
        if (at < line.size()) line.erase(at, 1);
        break;
      default: {  // splice: this line's head onto another corpus line's tail
        const Lines& donor = c.sessions[pick(rng, c.sessions.size())];
        const std::string& other = donor[pick(rng, donor.size())];
        line = line.substr(0, at) + other.substr(pick(rng, other.size() + 1));
        break;
      }
    }
  }
}

/// Printable form of a failing stream, for the reproducer.
std::string escaped(std::string_view s) {
  std::string e;
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (c == '\n') {
      e += "\\n\n";
    } else if (c < 0x20 || c >= 0x7f || c == '\\') {
      char hex[8];
      std::snprintf(hex, sizeof(hex), "\\x%02x", c);
      e += hex;
    } else {
      e += ch;
    }
  }
  return e;
}

TEST(WireFuzz, MutatedSessionsReplyInWholeLines) {
  const Corpus& c = corpus();
  const ServerOptions opts;
  Rng rng(kSeed + 1);
  std::string out;
  for (int i = 0; i < kMutatedSessions; ++i) {
    Lines lines = c.sessions[pick(rng, c.sessions.size())];
    mutate(lines, c, rng);
    const std::string stream = join(lines, "\n");
    ServerConnection conn(opts, i + 2);
    LineBuffer buf;
    std::string failure;
    feed_in_pieces(stream, rng, buf, [&](std::string_view line) {
      out.clear();
      bool keep = false;
      try {
        keep = conn.handle_line(line, out);
      } catch (const std::exception& e) {
        failure = std::string("threw: ") + e.what();
        return false;
      }
      if (!out.empty() && out.back() != '\n') {
        failure = "partial reply line: " + escaped(out);
        return false;
      }
      return keep;
    });
    ASSERT_TRUE(failure.empty())
        << "session " << i << ": " << failure << "\nstream:\n" << escaped(stream);
  }
}

}  // namespace
