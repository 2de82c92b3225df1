#include "obs/event_log.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace obs = harmony::obs;

namespace {

class EnabledGuard {
 public:
  EnabledGuard() : was_(obs::enabled()) {}
  ~EnabledGuard() { obs::set_enabled(was_); }

 private:
  bool was_;
};

// tail(n) as JSON lines, the way the server's LOG verb writes it.
void write_jsonl_tail(const obs::EventLog& log, std::ostream& os, std::size_t n) {
  for (const auto& e : log.tail(n)) {
    obs::EventLog::write_event_json(os, e);
    os << '\n';
  }
}

TEST(EventLog, SeverityNamesRoundTrip) {
  EXPECT_STREQ(obs::severity_name(obs::Severity::Debug), "debug");
  EXPECT_STREQ(obs::severity_name(obs::Severity::Info), "info");
  EXPECT_STREQ(obs::severity_name(obs::Severity::Warn), "warn");
  EXPECT_STREQ(obs::severity_name(obs::Severity::Error), "error");
  EXPECT_EQ(obs::severity_from("warn"), obs::Severity::Warn);
  EXPECT_EQ(obs::severity_from("error"), obs::Severity::Error);
  EXPECT_EQ(obs::severity_from("bogus"), obs::Severity::Info);
}

TEST(EventLog, RecordAndTailOldestFirst) {
  obs::EventLog log(64);
  log.record(obs::Severity::Info, "server", "s/1", "opened");
  log.record(obs::Severity::Warn, "server", "s/1", "slow");
  log.record(obs::Severity::Error, "engine", "", "boom");
  EXPECT_EQ(log.total(), 3u);
  EXPECT_EQ(log.size(), 3u);

  const auto tail = log.tail(2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].message, "slow");
  EXPECT_EQ(tail[1].message, "boom");
  EXPECT_LT(tail[0].seq, tail[1].seq);
  EXPECT_EQ(tail[1].component, "engine");
  EXPECT_GE(tail[1].t_us, tail[0].t_us);
}

TEST(EventLog, RingBoundsRetentionButCountsTotal) {
  obs::EventLog log(16);
  EXPECT_EQ(log.capacity(), 16u);
  for (int i = 0; i < 500; ++i) {
    log.record(obs::Severity::Info, "c", "", std::to_string(i));
  }
  EXPECT_EQ(log.total(), 500u);
  EXPECT_LE(log.size(), 16u);
  // The newest record is always retained.
  const auto tail = log.tail(1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].message, "499");
  EXPECT_EQ(tail[0].seq, 500u);
}

TEST(EventLog, TailLargerThanRetainedReturnsEverything) {
  obs::EventLog log(1024);
  for (int i = 0; i < 5; ++i) {
    log.record(obs::Severity::Debug, "c", "", "m");
  }
  EXPECT_EQ(log.tail(100).size(), 5u);
  EXPECT_TRUE(log.tail(0).empty());
}

TEST(EventLog, ClearDropsEventsKeepsSequence) {
  obs::EventLog log(64);
  log.record(obs::Severity::Info, "c", "", "one");
  log.clear();
  EXPECT_EQ(log.size(), 0u);
  log.record(obs::Severity::Info, "c", "", "two");
  const auto tail = log.tail(10);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].seq, 2u);  // sequence keeps counting across clear()
}

TEST(EventLog, EventJsonParsesAndEscapes) {
  obs::EventLog log(8);
  log.record(obs::Severity::Warn, "server", "s/1", "quote \" and \\ and\nnewline");
  std::ostringstream os;
  obs::EventLog::write_event_json(os, log.tail(1)[0]);
  const auto doc = obs::json_parse(os.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->string_or("severity", ""), "warn");
  EXPECT_EQ(doc->string_or("component", ""), "server");
  EXPECT_EQ(doc->string_or("session", ""), "s/1");
  EXPECT_EQ(doc->string_or("message", ""), "quote \" and \\ and\nnewline");
  EXPECT_GE(doc->number_or("seq", -1), 1.0);
}

TEST(EventLog, WriteJsonlTail) {
  obs::EventLog log(64);  // 8 per shard, so same-thread records both survive
  log.record(obs::Severity::Info, "x", "", "1");
  log.record(obs::Severity::Info, "x", "", "2");
  std::ostringstream os;
  write_jsonl_tail(log, os, 2);
  int lines = 0;
  std::istringstream in(os.str());
  for (std::string l; std::getline(in, l);) {
    EXPECT_TRUE(obs::json_parse(l).has_value());
    ++lines;
  }
  EXPECT_EQ(lines, 2);
}

TEST(EventLog, GatedHelpersRespectEnabledFlag) {
  const EnabledGuard guard;
  auto& global = obs::EventLog::global();
  obs::set_enabled(false);
  const auto before = global.total();
  obs::log_info("test", "suppressed");
  EXPECT_EQ(global.total(), before);
  obs::set_enabled(true);
  obs::log_warn("test", "recorded", "sess");
  EXPECT_EQ(global.total(), before + 1);
}

TEST(EventLog, ConcurrentRecordersKeepAllEvents) {
  obs::EventLog log(1 << 14);
  constexpr int kThreads = 4;
  constexpr int kEvents = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      std::string component = "thread/";
      component += std::to_string(t);
      for (int i = 0; i < kEvents; ++i) {
        log.record(obs::Severity::Info, component, "", "event");
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(log.total(), static_cast<std::uint64_t>(kThreads) * kEvents);
  EXPECT_EQ(log.size(), static_cast<std::size_t>(kThreads) * kEvents);
  // Tail is globally ordered by sequence despite sharded storage.
  const auto tail = log.tail(kThreads * kEvents);
  for (std::size_t i = 1; i < tail.size(); ++i) {
    EXPECT_LT(tail[i - 1].seq, tail[i].seq);
  }
}

// Eight concurrent recorders, one per shard, each filling exactly its share
// of the capacity: nothing may be evicted, whatever the threads' ids are.
TEST(EventLog, OneRecorderPerShardFillsTheWholeCapacity) {
  constexpr int kThreads = 8;
  constexpr int kEvents = 256;
  obs::EventLog log(kThreads * kEvents);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log] {
      for (int i = 0; i < kEvents; ++i) {
        log.record(obs::Severity::Info, "shard", "", "event");
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(log.size(), static_cast<std::size_t>(kThreads) * kEvents);
}

// Regression: a JSONL export must stay one-valid-object-per-line no matter
// what bytes land in a record. Slow-request messages carry client-supplied
// session ids and configs verbatim, so the escaper sees genuinely hostile
// strings in production, not just in tests.
TEST(EventLog, HostileStringsStayOneValidJsonObjectPerLine) {
  const std::vector<std::string> hostiles = {
      "plain",
      "quote\" backslash\\ slash/",
      "newline\n carriage\r tab\t",
      "embedded \"}{\"fake\":1} json",
      std::string("nul\0byte", 8),
      "controls \x01\x02\x1f\x7f",
      "unicode \xc3\xa9\xe2\x82\xac",  // é € (UTF-8 passes through)
      std::string(300, '\\'),
  };
  obs::EventLog log(64);
  for (const auto& h : hostiles) {
    log.record(obs::Severity::Warn, h, h, h);
  }
  std::ostringstream os;
  write_jsonl_tail(log, os, hostiles.size());
  std::istringstream in(os.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    const auto doc = obs::json_parse(line);
    ASSERT_TRUE(doc.has_value()) << "unparseable JSONL line: " << line;
    // The parsed message must round-trip the original bytes exactly
    // (NUL and other control bytes included), matched by index.
    ASSERT_LT(lines, hostiles.size());
    EXPECT_EQ(doc->string_or("message", ""), hostiles[lines]) << "line " << lines;
    EXPECT_EQ(doc->string_or("component", ""), hostiles[lines]);
    EXPECT_EQ(doc->string_or("session", ""), hostiles[lines]);
    ++lines;
  }
  EXPECT_EQ(lines, hostiles.size());
}

}  // namespace
