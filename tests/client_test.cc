#include "server/client.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <functional>
#include <string>
#include <thread>

#include "server/wire.h"

namespace mammoth::server {
namespace {

/// A scripted single-accept "server": binds an ephemeral loopback port
/// and runs `script` against the first accepted socket. Lets the tests
/// control exactly how response bytes hit the wire — half-written
/// frames, byte-at-a-time writes, mid-frame hangups.
class FakeServer {
 public:
  explicit FakeServer(std::function<void(int fd)> script) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                            &len),
              0);
    port_ = ntohs(addr.sin_port);
    EXPECT_EQ(::listen(listen_fd_, 1), 0);
    thread_ = std::thread([this, script = std::move(script)] {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd >= 0) {
        script(fd);
        ::close(fd);
      }
    });
  }

  ~FakeServer() {
    thread_.join();
    ::close(listen_fd_);
  }

  uint16_t port() const { return port_; }

  /// Drip-feeds `bytes` one at a time — the worst-case segmentation a
  /// client's reassembly loop must survive.
  static void WriteByteByByte(int fd, std::string_view bytes) {
    for (const char c : bytes) {
      SendAll(fd, std::string_view(&c, 1));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  static std::string HelloBytes() {
    HelloInfo hello;
    hello.session_id = 1;
    hello.server_name = "fake";
    return EncodeFrame(FrameType::kHello, EncodeHello(hello));
  }

  static std::string EmptyResultBytes() {
    auto payload = EncodeResult(mal::QueryResult{});
    EXPECT_TRUE(payload.ok());
    return EncodeFrame(FrameType::kResult, *payload);
  }

  /// Blocks until at least one byte of the client's query arrives.
  static void AwaitRequest(int fd) {
    char sink[4096];
    (void)!::recv(fd, sink, sizeof(sink), 0);
  }

 private:
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

TEST(ClientTimeoutTest, HalfWrittenFrameTimesOutInsteadOfHanging) {
  FakeServer fake([](int fd) {
    SendAll(fd, FakeServer::HelloBytes());
    FakeServer::AwaitRequest(fd);
    // Half a response: a valid header promising bytes that never come.
    const std::string result = FakeServer::EmptyResultBytes();
    SendAll(fd, result.substr(0, kHeaderBytes + 2));
    // Stall past the client's timeout, then hang up.
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
  });
  ClientOptions options;
  options.recv_timeout_ms = 150;
  auto client = Client::Connect("127.0.0.1", fake.port(), options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const auto t0 = std::chrono::steady_clock::now();
  auto r = client->Query("SELECT 1");
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimedOut)
      << r.status().ToString();
  // Returned promptly — near the configured timeout, not the stall.
  EXPECT_LT(elapsed.count(), 500);
}

TEST(ClientTimeoutTest, SlowButSteadyServerDoesNotTimeOut) {
  // SO_RCVTIMEO is per-recv: a server that trickles bytes slower than a
  // frame but faster than the timeout must still complete the query.
  FakeServer fake([](int fd) {
    SendAll(fd, FakeServer::HelloBytes());
    FakeServer::AwaitRequest(fd);
    FakeServer::WriteByteByByte(fd, FakeServer::EmptyResultBytes());
  });
  ClientOptions options;
  options.recv_timeout_ms = 250;
  auto client = Client::Connect("127.0.0.1", fake.port(), options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto r = client->Query("SELECT 1");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
}

TEST(ClientShortReadTest, ByteAtATimeHelloAndResultReassemble) {
  // The whole conversation dripped one byte at a time: the reassembly
  // loops in Connect() and Query() see maximally fragmented reads.
  FakeServer fake([](int fd) {
    FakeServer::WriteByteByByte(fd, FakeServer::HelloBytes());
    FakeServer::AwaitRequest(fd);
    FakeServer::WriteByteByByte(fd, FakeServer::EmptyResultBytes());
  });
  auto client = Client::Connect("127.0.0.1", fake.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_EQ(client->hello().server_name, "fake");
  auto r = client->Query("SELECT 1");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->RowCount(), 0u);
}

TEST(ClientShortReadTest, HangupMidFrameIsIOErrorNotTimeout) {
  FakeServer fake([](int fd) {
    SendAll(fd, FakeServer::HelloBytes());
    FakeServer::AwaitRequest(fd);
    const std::string result = FakeServer::EmptyResultBytes();
    SendAll(fd, result.substr(0, result.size() - 1));
    // close() from the destructor cuts the frame short.
  });
  auto client = Client::Connect("127.0.0.1", fake.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto r = client->Query("SELECT 1");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST(ClientShortWriteTest, QueryLargerThanSocketBuffersIsSentWhole) {
  // A query body far larger than any socket buffer forces send() to
  // return short; the client's write loop must deliver every byte. The
  // fake echoes the byte count back as an error message so the test can
  // verify nothing was truncated.
  static constexpr size_t kQueryBytes = 8u << 20;
  FakeServer fake([](int fd) {
    SendAll(fd, FakeServer::HelloBytes());
    std::string got;
    char chunk[64 * 1024];
    Frame frame;
    while (true) {
      auto consumed = DecodeFrame(got.data(), got.size(), &frame);
      ASSERT_TRUE(consumed.ok());
      if (*consumed > 0) break;
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      ASSERT_GT(n, 0);
      got.append(chunk, static_cast<size_t>(n));
      // Read deliberately slowly so the client's send buffer fills.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(frame.payload.size(), kQueryBytes);
    SendAll(
        fd, EncodeFrame(FrameType::kError,
                        EncodeError(Status::InvalidArgument(
                            std::to_string(frame.payload.size())))));
  });
  auto client = Client::Connect("127.0.0.1", fake.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto r = client->Query(std::string(kQueryBytes, 'x'));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), std::to_string(kQueryBytes));
}

}  // namespace
}  // namespace mammoth::server
