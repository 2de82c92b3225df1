#include "core/net.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

namespace harmony::net {

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept
    : fd_(other.fd_.exchange(-1, std::memory_order_relaxed)) {}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_.store(other.fd_.exchange(-1, std::memory_order_relaxed),
              std::memory_order_relaxed);
  }
  return *this;
}

void Socket::close() noexcept {
  const int fd = fd_.exchange(-1, std::memory_order_relaxed);
  if (fd >= 0) ::close(fd);
}

void Socket::shutdown() noexcept {
  const int fd = fd_.load(std::memory_order_relaxed);
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

bool Socket::send_all(const char* data, std::size_t size) const {
  const int fd = this->fd();
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool Socket::send_line(const std::string& line) const {
  return send_all(line + '\n');
}

bool Socket::set_nonblocking() const noexcept {
  const int fd = this->fd();
  if (fd < 0) return false;
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

std::optional<std::string> LineReader::read_line() {
  std::string line;
  if (!read_line(line)) return std::nullopt;
  return line;
}

bool LineReader::read_line(std::string& out) {
  constexpr std::size_t kChunk = 4096;
  out.clear();
  while (true) {
    if (const auto line = buffer_.pop_line()) {
      out.assign(*line);
      return true;
    }
    if (buffer_.overflowed()) return false;
    const ssize_t n = ::recv(socket_->fd(), buffer_.prepare(kChunk), kChunk, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // peer closed
    buffer_.commit(static_cast<std::size_t>(n));
  }
}

char* LineBuffer::prepare(std::size_t n) {
  if (buf_.size() - end_ < n) {
    // Compact the consumed prefix first; grow only if that is not enough.
    if (head_ > 0) {
      std::memmove(buf_.data(), buf_.data() + head_, end_ - head_);
      end_ -= head_;
      scan_ -= head_;
      head_ = 0;
    }
    if (buf_.size() - end_ < n) buf_.resize(std::max(end_ + n, 2 * buf_.size()));
  }
  return buf_.data() + end_;
}

void LineBuffer::append(std::string_view bytes) {
  if (bytes.empty() || overflowed_) return;
  std::memcpy(prepare(bytes.size()), bytes.data(), bytes.size());
  commit(bytes.size());
}

std::optional<std::string_view> LineBuffer::pop_line() {
  const char* base = buf_.data();
  const char* nl = nullptr;
  if (scan_ < end_) {
    nl = static_cast<const char*>(std::memchr(base + scan_, '\n', end_ - scan_));
  }
  const std::size_t start = head_;
  const std::size_t stop = nl != nullptr ? static_cast<std::size_t>(nl - base) : end_;
  std::size_t len = stop - start;
  if (len > kMaxLineBytes) {
    overflowed_ = true;
    std::vector<char>().swap(buf_);
    head_ = scan_ = end_ = 0;
    return std::nullopt;
  }
  if (nl == nullptr) {
    scan_ = end_;
    return std::nullopt;
  }
  head_ = scan_ = stop + 1;
  if (head_ == end_) head_ = scan_ = end_ = 0;  // drained: reuse from the front
  if (len > 0 && base[start + len - 1] == '\r') --len;
  return std::string_view(base + start, len);
}

void LineBuffer::shrink(std::size_t keep) {
  if (buf_.size() <= keep || size() > keep) return;
  buf_ = std::vector<char>(buf_.begin() + static_cast<std::ptrdiff_t>(head_),
                           buf_.begin() + static_cast<std::ptrdiff_t>(end_));
  end_ -= head_;
  scan_ -= head_;
  head_ = 0;
}

void ByteRing::append(const char* data, std::size_t n) {
  if (n == 0) return;
  if (count_ + n > buf_.size()) {
    // Grow: re-linearize into a fresh block (rare; capacity then persists).
    std::vector<char> grown(std::max<std::size_t>(1024, (count_ + n) * 2));
    iovec iov[2];
    const int segs = drain_iov(iov);
    std::size_t at = 0;
    for (int i = 0; i < segs; ++i) {
      std::memcpy(grown.data() + at, iov[i].iov_base, iov[i].iov_len);
      at += iov[i].iov_len;
    }
    buf_ = std::move(grown);
    head_ = 0;
  }
  const std::size_t tail = (head_ + count_) % buf_.size();
  const std::size_t first = std::min(n, buf_.size() - tail);
  std::memcpy(buf_.data() + tail, data, first);
  if (first < n) std::memcpy(buf_.data(), data + first, n - first);
  count_ += n;
}

int ByteRing::drain_iov(struct iovec* iov) const {
  if (count_ == 0) return 0;
  const std::size_t first = std::min(count_, buf_.size() - head_);
  iov[0].iov_base = const_cast<char*>(buf_.data() + head_);
  iov[0].iov_len = first;
  if (first == count_) return 1;
  iov[1].iov_base = const_cast<char*>(buf_.data());
  iov[1].iov_len = count_ - first;
  return 2;
}

void ByteRing::consume(std::size_t n) {
  n = std::min(n, count_);
  count_ -= n;
  head_ = count_ == 0 ? 0 : (head_ + n) % buf_.size();
}

void ByteRing::shrink(std::size_t max_capacity) {
  if (buf_.size() <= max_capacity || count_ > max_capacity) return;
  if (count_ == 0 && max_capacity == 0) {
    std::vector<char>().swap(buf_);
    head_ = 0;
    return;
  }
  std::vector<char> packed(std::max(max_capacity, count_));
  iovec iov[2];
  const int segs = drain_iov(iov);
  std::size_t at = 0;
  for (int i = 0; i < segs; ++i) {
    std::memcpy(packed.data() + at, iov[i].iov_base, iov[i].iov_len);
    at += iov[i].iov_len;
  }
  buf_ = std::move(packed);
  head_ = 0;
}

ListenResult listen_loopback(int port) {
  ListenResult out;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return out;
  Socket s(fd);
  const int yes = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &yes, sizeof(yes));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) return out;
  // SOMAXCONN, not a small constant: a burst of simultaneous connects past
  // the backlog gets its SYNs dropped, and the 1 s TCP retransmit timer then
  // dwarfs any amount of server-side efficiency.
  if (::listen(fd, SOMAXCONN) != 0) return out;

  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) return out;
  out.port = ntohs(addr.sin_port);
  out.socket = std::move(s);
  return out;
}

Socket accept_connection(const Socket& listener) {
  while (true) {
    const int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd >= 0) {
      const int yes = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &yes, sizeof(yes));
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    return Socket{};
  }
}

namespace {

/// One connect attempt. timeout_ms > 0 runs a non-blocking connect bounded
/// by poll() and restores blocking mode on success.
Socket connect_once(int port, int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Socket{};
  Socket s(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));

  if (timeout_ms > 0) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
      return Socket{};
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      if (errno != EINPROGRESS) return Socket{};
      pollfd pfd{};
      pfd.fd = fd;
      pfd.events = POLLOUT;
      int r;
      do {
        r = ::poll(&pfd, 1, timeout_ms);
      } while (r < 0 && errno == EINTR);
      if (r <= 0) return Socket{};  // timeout or poll error
      int err = 0;
      socklen_t len = sizeof(err);
      if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
        return Socket{};
      }
    }
    if (::fcntl(fd, F_SETFL, flags) != 0) return Socket{};
  } else if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Socket{};
  }
  const int yes = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &yes, sizeof(yes));
  return s;
}

}  // namespace

Socket connect_loopback(int port) { return connect_once(port, 0); }

Socket connect_loopback(int port, const ConnectOptions& opts) {
  int backoff = std::max(0, opts.backoff_ms);
  const int attempts = std::max(1, opts.attempts);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0 && backoff > 0) {
      ::poll(nullptr, 0, backoff);  // interruption-tolerant sleep
      backoff = std::min(backoff * 2, std::max(backoff, opts.max_backoff_ms));
    }
    Socket s = connect_once(port, opts.timeout_ms);
    if (s.valid()) return s;
  }
  return Socket{};
}

}  // namespace harmony::net
