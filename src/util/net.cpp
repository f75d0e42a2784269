#include "util/net.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "util/require.hpp"

namespace omniboost::util {

namespace {

[[noreturn]] void raise(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// poll() one fd for readability; true = readable, false = timed out.
bool wait_readable(int fd, int timeout_ms) {
  struct pollfd p;
  p.fd = fd;
  p.events = POLLIN;
  p.revents = 0;
  for (;;) {
    const int rc = ::poll(&p, 1, timeout_ms);
    if (rc > 0) return true;
    if (rc == 0) return false;
    if (errno != EINTR) raise("poll");
  }
}

/// Wraps a connected socket. Both ends of every connection go through
/// here, so TCP_NODELAY is set in exactly one place.
TcpStream adopt_connected(int fd) {
  TcpStream stream{fd};
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) < 0)
    raise("setsockopt TCP_NODELAY");
  return stream;
}

}  // namespace

TcpStream::~TcpStream() { close(); }

TcpStream::TcpStream(TcpStream&& rhs) noexcept
    : fd_(std::exchange(rhs.fd_, -1)), buffer_(std::move(rhs.buffer_)) {}

TcpStream& TcpStream::operator=(TcpStream&& rhs) noexcept {
  if (this != &rhs) {
    close();
    fd_ = std::exchange(rhs.fd_, -1);
    buffer_ = std::move(rhs.buffer_);
  }
  return *this;
}

void TcpStream::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

void TcpStream::send_lines(const std::vector<std::string>& lines) {
  OB_REQUIRE(fd_ >= 0, "TcpStream::send_lines: stream is not connected");
  std::size_t bytes = 0;
  for (const std::string& line : lines) {
    OB_REQUIRE(line.find('\n') == std::string::npos,
               "TcpStream::send_lines: a line must not contain a newline");
    bytes += line.size() + 1;
  }
  std::string wire;
  wire.reserve(bytes);
  for (const std::string& line : lines) {
    wire += line;
    wire += '\n';
  }
  std::size_t sent = 0;
  while (sent < wire.size()) {
    // MSG_NOSIGNAL: a vanished peer yields EPIPE, not a process-wide SIGPIPE.
    const ssize_t n = ::send(fd_, wire.data() + sent, wire.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      raise("send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

TcpStream::RecvStatus TcpStream::recv_line(std::string* out, int timeout_ms) {
  OB_REQUIRE(out != nullptr, "TcpStream::recv_line: null output");
  OB_REQUIRE(fd_ >= 0, "TcpStream::recv_line: stream is not connected");
  for (;;) {
    const std::size_t eol = buffer_.find('\n');
    if (eol != std::string::npos && eol <= kMaxLineBytes) {
      *out = buffer_.substr(0, eol);
      buffer_.erase(0, eol + 1);
      if (!out->empty() && out->back() == '\r') out->pop_back();
      return RecvStatus::kLine;
    }
    // The pending line (complete or not) is already past the cap.
    if (std::min(eol, buffer_.size()) > kMaxLineBytes) {
      buffer_.clear();
      return RecvStatus::kTooLong;
    }
    if (!wait_readable(fd_, timeout_ms)) return RecvStatus::kTimeout;
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      raise("recv");
    }
    if (n == 0) return RecvStatus::kClosed;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

TcpListener::TcpListener(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) raise("socket");
  const int one = 1;
  // Lets a restarted daemon rebind its port while old sockets linger in
  // TIME_WAIT; best-effort, so the return value is deliberately ignored.
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) < 0)
    raise("bind 127.0.0.1:" + std::to_string(port));
  if (::listen(fd_, 8) < 0) raise("listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<struct sockaddr*>(&addr), &len) < 0)
    raise("getsockname");
  port_ = ntohs(addr.sin_port);
}

TcpListener::~TcpListener() { close(); }

TcpListener::TcpListener(TcpListener&& rhs) noexcept
    : fd_(std::exchange(rhs.fd_, -1)), port_(std::exchange(rhs.port_, 0)) {}

TcpListener& TcpListener::operator=(TcpListener&& rhs) noexcept {
  if (this != &rhs) {
    close();
    fd_ = std::exchange(rhs.fd_, -1);
    port_ = std::exchange(rhs.port_, 0);
  }
  return *this;
}

void TcpListener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TcpStream TcpListener::accept(int timeout_ms) {
  OB_REQUIRE(fd_ >= 0, "TcpListener::accept: listener is closed");
  if (!wait_readable(fd_, timeout_ms)) return TcpStream{};
  for (;;) {
    const int client = ::accept(fd_, nullptr, nullptr);
    if (client >= 0) return adopt_connected(client);
    if (errno != EINTR) raise("accept");
  }
}

TcpStream tcp_connect(const std::string& host, std::uint16_t port) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string numeric = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, numeric.c_str(), &addr.sin_addr) != 1)
    throw std::runtime_error("tcp_connect: cannot parse host '" + host +
                             "' (numeric IPv4 or 'localhost' only)");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) raise("socket");
  for (;;) {
    if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) == 0)
      return adopt_connected(fd);
    if (errno != EINTR) {
      const int saved = errno;
      ::close(fd);
      errno = saved;
      raise("connect " + numeric + ":" + std::to_string(port));
    }
  }
}

}  // namespace omniboost::util
