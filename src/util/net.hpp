#pragma once
/// \file net.hpp
/// Minimal line-oriented TCP shims for the serving daemon and its client.
///
/// Scope is deliberately tiny: loopback-only listening (the daemon is an
/// operator tool, not an internet-facing service), blocking connects, and a
/// newline-delimited message discipline matching the scenario trace grammar.
/// Everything is POSIX sockets; errors surface as std::runtime_error with
/// the errno text attached. Objects are move-only owners of their fd.
///
/// Every connected socket (accepted or dialled) has TCP_NODELAY set, and a
/// multi-line message goes out as one write (send_lines): a request/reply
/// exchange never waits on Nagle's algorithm holding a small second write
/// back until the peer's delayed ACK.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace omniboost::util {

/// One connected TCP socket with buffered line reads.
class TcpStream {
 public:
  TcpStream() = default;
  explicit TcpStream(int fd) : fd_(fd) {}
  ~TcpStream();
  TcpStream(TcpStream&& rhs) noexcept;
  TcpStream& operator=(TcpStream&& rhs) noexcept;
  TcpStream(const TcpStream&) = delete;
  TcpStream& operator=(const TcpStream&) = delete;

  /// Longest line recv_line accepts, newline excluded. Lines are trace
  /// clauses and report rows, far below this; the cap only stops a peer
  /// that never sends '\n' from growing the read buffer without limit.
  static constexpr std::size_t kMaxLineBytes = 64 * 1024;

  bool valid() const { return fd_ >= 0; }

  /// Writes every line of \p lines, each plus a trailing '\n', as one
  /// write. Every line is checked for an embedded '\n' (std::invalid_argument)
  /// before any byte is sent. Throws std::runtime_error on a closed or
  /// broken connection.
  void send_lines(const std::vector<std::string>& lines);

  /// send_lines with a single line.
  void send_line(const std::string& line) { send_lines({line}); }

  enum class RecvStatus {
    kLine,     ///< a full line was received (newline stripped)
    kTimeout,  ///< nothing arrived within the timeout
    kClosed,   ///< the peer closed the connection
    kTooLong,  ///< the next line exceeds kMaxLineBytes (buffer discarded)
  };

  /// Reads the next newline-delimited line into \p out (without the
  /// newline; a trailing '\r' is stripped for telnet-friendliness).
  /// \p timeout_ms < 0 blocks indefinitely; 0 polls. After kTooLong the
  /// stream is out of step with the peer's framing; close it.
  RecvStatus recv_line(std::string* out, int timeout_ms = -1);

  void close();

 private:
  int fd_ = -1;
  std::string buffer_;  ///< bytes received past the last returned line
};

/// A listening TCP socket bound to 127.0.0.1.
class TcpListener {
 public:
  /// Binds and listens on loopback. \p port == 0 picks an ephemeral port;
  /// port() reports the actual one. Throws std::runtime_error on failure
  /// (e.g. the port is taken).
  explicit TcpListener(std::uint16_t port);
  ~TcpListener();
  TcpListener(TcpListener&& rhs) noexcept;
  TcpListener& operator=(TcpListener&& rhs) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  std::uint16_t port() const { return port_; }

  /// Accepts one connection. \p timeout_ms < 0 blocks indefinitely; on
  /// timeout the returned stream is !valid().
  TcpStream accept(int timeout_ms = -1);

  void close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Blocking connect to host:port (host is resolved as a numeric IPv4
/// address or "localhost"). Throws std::runtime_error on failure.
TcpStream tcp_connect(const std::string& host, std::uint16_t port);

}  // namespace omniboost::util
