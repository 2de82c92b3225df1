#include "core/net.hpp"

#include <gtest/gtest.h>
#include <sys/uio.h>

#include <chrono>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace {

using namespace harmony::net;

TEST(Net, ListenPicksEphemeralPort) {
  auto lr = listen_loopback(0);
  ASSERT_TRUE(lr.socket.valid());
  EXPECT_GT(lr.port, 0);
  EXPECT_LE(lr.port, 65535);
}

TEST(Net, ConnectAcceptRoundtrip) {
  auto lr = listen_loopback(0);
  ASSERT_TRUE(lr.socket.valid());
  std::thread client([port = lr.port] {
    Socket s = connect_loopback(port);
    ASSERT_TRUE(s.valid());
    ASSERT_TRUE(s.send_line("hello server"));
    LineReader reader(s);
    const auto reply = reader.read_line();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(*reply, "hello client");
  });
  Socket conn = accept_connection(lr.socket);
  ASSERT_TRUE(conn.valid());
  LineReader reader(conn);
  const auto line = reader.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "hello server");
  ASSERT_TRUE(conn.send_line("hello client"));
  client.join();
}

TEST(Net, LineReaderSplitsMultipleLinesInOneSegment) {
  auto lr = listen_loopback(0);
  std::thread client([port = lr.port] {
    Socket s = connect_loopback(port);
    ASSERT_TRUE(s.send_all("one\ntwo\r\nthree\n"));
  });
  Socket conn = accept_connection(lr.socket);
  LineReader reader(conn);
  EXPECT_EQ(reader.read_line().value(), "one");
  EXPECT_EQ(reader.read_line().value(), "two");  // CR stripped
  EXPECT_EQ(reader.read_line().value(), "three");
  client.join();
}

TEST(Net, LineReaderReturnsNulloptOnPeerClose) {
  auto lr = listen_loopback(0);
  std::thread client([port = lr.port] {
    Socket s = connect_loopback(port);
    // close immediately without sending a full line
    ASSERT_TRUE(s.send_all("partial-without-newline"));
  });
  Socket conn = accept_connection(lr.socket);
  LineReader reader(conn);
  EXPECT_FALSE(reader.read_line().has_value());
  client.join();
}

TEST(Net, ShutdownUnblocksAccept) {
  auto lr = listen_loopback(0);
  ASSERT_TRUE(lr.socket.valid());
  std::thread stopper([&lr] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    lr.socket.shutdown();
  });
  Socket conn = accept_connection(lr.socket);
  EXPECT_FALSE(conn.valid());
  stopper.join();
}

TEST(Net, ConnectToClosedPortFails) {
  // Bind a port, close it, then connect — must fail cleanly.
  int dead_port;
  {
    auto lr = listen_loopback(0);
    dead_port = lr.port;
  }
  Socket s = connect_loopback(dead_port);
  EXPECT_FALSE(s.valid());
}

TEST(Net, SocketMoveSemantics) {
  auto lr = listen_loopback(0);
  const int fd = lr.socket.fd();
  Socket moved = std::move(lr.socket);
  EXPECT_TRUE(moved.valid());
  EXPECT_EQ(moved.fd(), fd);
  EXPECT_FALSE(lr.socket.valid());
  Socket assigned;
  assigned = std::move(moved);
  EXPECT_TRUE(assigned.valid());
  EXPECT_FALSE(moved.valid());
}

TEST(Net, SendOnInvalidSocketFails) {
  const Socket s;
  EXPECT_FALSE(s.valid());
  EXPECT_FALSE(s.send_line("nope"));
}

TEST(Net, LineReaderReassemblesPartialSends) {
  // A line delivered one byte at a time (worst-case TCP fragmentation) must
  // come out whole, and the buffer must carry over into the next line.
  auto lr = listen_loopback(0);
  std::thread client([port = lr.port] {
    Socket s = connect_loopback(port);
    const std::string payload = "FETCH with args\nBYE\n";
    for (const char c : payload) {
      ASSERT_TRUE(s.send_all(std::string(1, c)));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  Socket conn = accept_connection(lr.socket);
  LineReader reader(conn);
  EXPECT_EQ(reader.read_line().value(), "FETCH with args");
  EXPECT_EQ(reader.read_line().value(), "BYE");
  EXPECT_FALSE(reader.overflowed());
  client.join();
}

TEST(Net, LineReaderRejectsOversizedUnterminatedLine) {
  auto lr = listen_loopback(0);
  std::thread client([port = lr.port] {
    Socket s = connect_loopback(port);
    // Never send a newline: a well-behaved reader must cap the buffer
    // rather than grow it until the peer stops.
    ASSERT_TRUE(s.send_all(std::string(kMaxLineBytes + 1, 'x')));
    // Hold the connection open so nullopt means "limit", not "peer closed".
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  });
  Socket conn = accept_connection(lr.socket);
  LineReader reader(conn);
  EXPECT_FALSE(reader.read_line().has_value());
  EXPECT_TRUE(reader.overflowed());
  client.join();
}

TEST(Net, LineReaderOutParamReusesBufferAcrossLines) {
  auto lr = listen_loopback(0);
  std::thread client([port = lr.port] {
    Socket s = connect_loopback(port);
    ASSERT_TRUE(s.send_all("a-fairly-long-first-line to size the buffer\n"));
    ASSERT_TRUE(s.send_all("short\nthird line\n"));
  });
  Socket conn = accept_connection(lr.socket);
  LineReader reader(conn);
  std::string line;
  ASSERT_TRUE(reader.read_line(line));
  EXPECT_EQ(line, "a-fairly-long-first-line to size the buffer");
  const auto cap = line.capacity();
  ASSERT_TRUE(reader.read_line(line));
  EXPECT_EQ(line, "short");
  // The whole point of the overload: no reallocation once sized.
  EXPECT_EQ(line.capacity(), cap);
  ASSERT_TRUE(reader.read_line(line));
  EXPECT_EQ(line, "third line");
  ASSERT_FALSE(reader.read_line(line));  // EOF
  EXPECT_TRUE(line.empty());
  client.join();
}

TEST(Net, LineReaderOutParamOverflowLeavesOutEmpty) {
  auto lr = listen_loopback(0);
  std::thread client([port = lr.port] {
    Socket s = connect_loopback(port);
    ASSERT_TRUE(s.send_line(std::string(kMaxLineBytes + 1, 'q')));
  });
  Socket conn = accept_connection(lr.socket);
  LineReader reader(conn);
  std::string line = "stale contents";
  EXPECT_FALSE(reader.read_line(line));
  EXPECT_TRUE(line.empty());
  EXPECT_TRUE(reader.overflowed());
  client.join();
}

/// Every line `buf` yields right now.
std::vector<std::string> pop_all(LineBuffer& buf) {
  std::vector<std::string> lines;
  while (const auto line = buf.pop_line()) lines.emplace_back(*line);
  return lines;
}

TEST(Net, LineBufferRejectsOverlongTerminatedLine) {
  LineBuffer buf;
  buf.append(std::string(kMaxLineBytes + 1, 'y') + "\nshort\n");
  EXPECT_FALSE(buf.pop_line().has_value());
  EXPECT_TRUE(buf.overflowed());
  // The buffer is poisoned: even the well-formed line after the overflow is
  // refused, so a server never resynchronizes mid-stream with a flooding
  // client, and the flood's bytes are released.
  EXPECT_FALSE(buf.pop_line().has_value());
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.capacity(), 0u);
}

TEST(Net, LineBufferTakesALineOfExactlyTheLimit) {
  LineBuffer buf;
  buf.append(std::string(kMaxLineBytes, 'y') + "\n");
  const auto line = buf.pop_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->size(), kMaxLineBytes);
  EXPECT_FALSE(buf.overflowed());
}

TEST(Net, LineBufferRejectsOverlongUnterminatedLine) {
  LineBuffer buf;
  const std::string chunk(4096, 'x');
  // Exactly the limit, unterminated, may still become a line...
  for (std::size_t n = 0; n < kMaxLineBytes; n += chunk.size()) buf.append(chunk);
  EXPECT_FALSE(buf.pop_line().has_value());
  EXPECT_FALSE(buf.overflowed());
  // ...one byte more cannot.
  buf.append("x");
  EXPECT_FALSE(buf.pop_line().has_value());
  EXPECT_TRUE(buf.overflowed());
}

TEST(Net, LineBufferDiscardsInputAfterOverflow) {
  LineBuffer buf;
  buf.append(std::string(kMaxLineBytes + 1, 'z'));
  EXPECT_FALSE(buf.pop_line().has_value());
  ASSERT_TRUE(buf.overflowed());
  buf.append("HELLO late\n");
  std::memcpy(buf.prepare(4), "BYE\n", 4);
  buf.commit(4);
  EXPECT_FALSE(buf.pop_line().has_value());
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_TRUE(buf.overflowed());
}

TEST(Net, LineBufferStripsOneTrailingCarriageReturn) {
  LineBuffer buf;
  buf.append("one\r\ntwo\r\r\n\r\nthree\rmid\n");
  EXPECT_EQ(pop_all(buf),
            (std::vector<std::string>{"one", "two\r", "", "three\rmid"}));
}

TEST(Net, LineBufferReassemblesALineSplitAcrossManyAppends) {
  LineBuffer buf;
  const std::string traced = "REPORT+FETCH 1.25 T=00000000000000ab-00000000000000cd";
  std::vector<std::string> lines;
  for (const char c : traced + "\nBYE\n") {
    buf.append({&c, 1});
    for (auto& line : pop_all(buf)) lines.push_back(std::move(line));
  }
  EXPECT_EQ(lines, (std::vector<std::string>{traced, "BYE"}));
  EXPECT_EQ(buf.size(), 0u);
}

TEST(Net, LineBufferSplitsAPipelinedBurstAndKeepsTheTail) {
  LineBuffer buf;
  std::string burst;
  for (int i = 0; i < 64; ++i) burst += "REPORT+FETCH " + std::to_string(i) + "\n";
  burst += "REPORT+FE";
  buf.append(burst);
  const auto lines = pop_all(buf);
  ASSERT_EQ(lines.size(), 64u);
  EXPECT_EQ(lines.front(), "REPORT+FETCH 0");
  EXPECT_EQ(lines.back(), "REPORT+FETCH 63");
  EXPECT_EQ(buf.size(), 9u);  // the partial tail waits for its terminator
  buf.append("TCH 64\n");
  EXPECT_EQ(pop_all(buf), (std::vector<std::string>{"REPORT+FETCH 64"}));
}

TEST(Net, LineBufferCompactsInsteadOfGrowingInSteadyState) {
  LineBuffer buf;
  buf.append("warm-up line\npartial");
  ASSERT_TRUE(buf.pop_line().has_value());
  const auto cap = buf.capacity();
  // A consumed prefix ahead of a partial line is reclaimed before growth.
  for (int i = 0; i < 1000; ++i) {
    buf.append(" tail\nnext partial");
    ASSERT_TRUE(buf.pop_line().has_value());
  }
  EXPECT_LE(buf.capacity(), 2 * cap);
}

TEST(Net, LineBufferShrinkReleasesBurstCapacity) {
  LineBuffer buf;
  buf.append(std::string(64 * 1024, 'b') + "\nkeep");
  ASSERT_TRUE(buf.pop_line().has_value());
  ASSERT_GT(buf.capacity(), 16u * 1024);
  buf.shrink(16 * 1024);
  EXPECT_EQ(buf.capacity(), 4u);  // exactly the unpopped bytes
  buf.append("\n");
  EXPECT_EQ(pop_all(buf), (std::vector<std::string>{"keep"}));
  buf.shrink(0);
  EXPECT_EQ(buf.capacity(), 0u);
}

TEST(Net, ByteRingAppendDrainConsumeWraps) {
  ByteRing ring;
  EXPECT_TRUE(ring.empty());
  struct iovec iov[2];
  EXPECT_EQ(ring.drain_iov(iov), 0);

  ring.append("hello ");
  ring.append(std::string_view("world"));
  EXPECT_EQ(ring.size(), 11u);
  int segs = ring.drain_iov(iov);
  ASSERT_GE(segs, 1);
  std::string gathered;
  for (int i = 0; i < segs; ++i) {
    gathered.append(static_cast<const char*>(iov[i].iov_base), iov[i].iov_len);
  }
  EXPECT_EQ(gathered, "hello world");

  // Consume a prefix, then append enough to wrap the readable region around
  // the end of the storage: drain must expose both segments in order.
  ring.consume(6);
  const std::string tail(ring.capacity() - ring.size() - 2, 'A');
  ring.append(tail);
  segs = ring.drain_iov(iov);
  gathered.clear();
  for (int i = 0; i < segs; ++i) {
    gathered.append(static_cast<const char*>(iov[i].iov_base), iov[i].iov_len);
  }
  EXPECT_EQ(gathered, "world" + tail);

  ring.consume(ring.size());
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.drain_iov(iov), 0);
}

TEST(Net, ByteRingSteadyStateDoesNotGrow) {
  ByteRing ring;
  ring.append(std::string(100, 'x'));
  ring.consume(100);
  const auto cap = ring.capacity();
  // A steady stream of append/consume at sizes below capacity must reuse the
  // existing storage — the event loop relies on this for allocation-free
  // flushes.
  struct iovec iov[2];
  for (int i = 0; i < 1000; ++i) {
    ring.append("REPORT+FETCH 1.25\nCONFIG 1 2 3\n");
    ASSERT_GE(ring.drain_iov(iov), 1);
    ring.consume(ring.size());
  }
  EXPECT_EQ(ring.capacity(), cap);
}

TEST(Net, ByteRingShrinkDecaysCapacityAfterBurst) {
  ByteRing ring;
  ring.append(std::string(256 * 1024, 'x'));  // burst grows the storage
  ring.consume(ring.size());
  ASSERT_GE(ring.capacity(), 256u * 1024u);
  ring.shrink(16 * 1024);
  EXPECT_LE(ring.capacity(), 16u * 1024u);
  // Still fully usable after compaction.
  ring.append("hello");
  struct iovec iov[2];
  ASSERT_GE(ring.drain_iov(iov), 1);
  EXPECT_EQ(std::string(static_cast<const char*>(iov[0].iov_base),
                        iov[0].iov_len),
            "hello");
}

TEST(Net, ByteRingShrinkPreservesWrappedPendingData) {
  ByteRing ring;
  ring.append(std::string(64 * 1024, 'a'));
  ring.consume(64 * 1024 - 10);  // 10 bytes of 'a' near the end of storage
  ring.append("0123456789");     // wraps around the end
  ASSERT_EQ(ring.size(), 20u);
  ring.shrink(1024);
  EXPECT_LE(ring.capacity(), 1024u);
  struct iovec iov[2];
  const int segs = ring.drain_iov(iov);
  std::string gathered;
  for (int i = 0; i < segs; ++i) {
    gathered.append(static_cast<const char*>(iov[i].iov_base), iov[i].iov_len);
  }
  EXPECT_EQ(gathered, std::string(10, 'a') + "0123456789");
}

TEST(Net, ByteRingShrinkIsANoOpWhenDataExceedsTarget) {
  ByteRing ring;
  ring.append(std::string(8 * 1024, 'x'));
  const auto cap = ring.capacity();
  ring.shrink(1024);  // 8 KiB pending > 1 KiB target: must not drop data
  EXPECT_EQ(ring.capacity(), cap);
  EXPECT_EQ(ring.size(), 8u * 1024u);
}

TEST(Net, ByteRingShrinkToZeroFreesEmptyRing) {
  ByteRing ring;
  ring.append(std::string(4096, 'x'));
  ring.consume(4096);
  ring.shrink(0);
  EXPECT_EQ(ring.capacity(), 0u);
  ring.append("still works");
  EXPECT_EQ(ring.size(), 11u);
}

TEST(Net, LargePayloadRoundtrip) {
  auto lr = listen_loopback(0);
  const std::string big(1 << 18, 'x');
  std::thread client([&, port = lr.port] {
    Socket s = connect_loopback(port);
    ASSERT_TRUE(s.send_line(big));
  });
  Socket conn = accept_connection(lr.socket);
  LineReader reader(conn);
  const auto line = reader.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->size(), big.size());
  client.join();
}

}  // namespace
