// The line-protocol socket front end (DESIGN.md §15): statement framing,
// OK/ERR responses, backslash commands, per-connection sessions, and clean
// shutdown with connections still open.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "datagen/paper_example.h"
#include "server/server.h"
#include "server/session.h"
#include "server/socket_server.h"

namespace minerule {
namespace {

std::string TestSocketPath() {
  static std::atomic<int> counter{0};
  return "/tmp/mr_sock_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// Minimal blocking protocol client.
class Client {
 public:
  explicit Client(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0)
        << std::strerror(errno);
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  /// Sends raw bytes; false on a dead connection (MSG_NOSIGNAL keeps a
  /// stopped server from killing the test with SIGPIPE).
  bool Send(const std::string& data) {
    size_t off = 0;
    while (off < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads one '.'-terminated response; returns its lines without the
  /// terminator.
  std::vector<std::string> ReadResponse() {
    while (true) {
      size_t start = 0;
      std::vector<std::string> lines;
      size_t newline;
      bool complete = false;
      while ((newline = buffer_.find('\n', start)) != std::string::npos) {
        std::string line = buffer_.substr(start, newline - start);
        start = newline + 1;
        if (line == ".") {
          complete = true;
          break;
        }
        lines.push_back(std::move(line));
      }
      if (complete) {
        buffer_.erase(0, start);
        return lines;
      }
      char chunk[1024];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) return {};
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  std::vector<std::string> Roundtrip(const std::string& request) {
    if (!Send(request)) return {};
    return ReadResponse();
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

class ServerSocketTest : public ::testing::Test {
 protected:
  ServerSocketTest()
      : path_(TestSocketPath()),
        server_(&catalog_),
        socket_server_(&server_, path_) {
    auto purchase = datagen::MakePaperPurchaseTable(&catalog_);
    EXPECT_TRUE(purchase.ok()) << purchase.status();
    Status status = socket_server_.Start();
    EXPECT_TRUE(status.ok()) << status;
  }

  std::string path_;
  Catalog catalog_;
  server::Server server_;
  server::SocketServer socket_server_;
};

TEST_F(ServerSocketTest, StatementsRowsAndErrors) {
  Client client(path_);

  // A SELECT: OK header, tab-separated header + rows.
  auto response =
      client.Roundtrip("SELECT customer, item FROM Purchase\n"
                       "  ORDER BY customer, item;\n");
  ASSERT_GE(response.size(), 2u);
  EXPECT_EQ(response[0].rfind("OK rows=8 ", 0), 0u) << response[0];
  EXPECT_EQ(response[1], "customer\titem");
  EXPECT_EQ(response.size(), 2u + 8u);
  EXPECT_NE(response[2].find('\t'), std::string::npos);

  // DML reports affected rows and bumps the epoch.
  response = client.Roundtrip("CREATE TABLE t (x INTEGER);\n");
  ASSERT_EQ(response.size(), 1u);
  EXPECT_EQ(response[0].rfind("OK ", 0), 0u);
  response = client.Roundtrip("INSERT INTO t VALUES (1), (2), (3);\n");
  ASSERT_EQ(response.size(), 1u);
  EXPECT_NE(response[0].find("affected=3"), std::string::npos) << response[0];

  // Errors come back as a single ERR line; the connection survives.
  response = client.Roundtrip("SELECT x FROM missing;\n");
  ASSERT_EQ(response.size(), 1u);
  EXPECT_EQ(response[0].rfind("ERR ", 0), 0u) << response[0];
  response = client.Roundtrip("SELECT COUNT(*) FROM t;\n");
  ASSERT_GE(response.size(), 2u);
  EXPECT_EQ(response[0].rfind("OK rows=1 ", 0), 0u) << response[0];
}

TEST_F(ServerSocketTest, MineRuleOverTheWire) {
  Client client(path_);
  auto response = client.Roundtrip(
      "MINE RULE wire_rules AS\n"
      "SELECT DISTINCT 1..n item AS BODY, 1..1 item AS HEAD, SUPPORT, "
      "CONFIDENCE\n"
      "FROM Purchase\n"
      "GROUP BY customer\n"
      "EXTRACTING RULES WITH SUPPORT: 0.1, CONFIDENCE: 0.1;\n");
  ASSERT_EQ(response.size(), 1u);
  EXPECT_EQ(response[0].rfind("OK ", 0), 0u) << response[0];
  EXPECT_NE(response[0].find("rules="), std::string::npos);
  // The rule table is immediately queryable on the same connection.
  response = client.Roundtrip("SELECT COUNT(*) FROM wire_rules;\n");
  ASSERT_GE(response.size(), 2u);
  EXPECT_EQ(response[0].rfind("OK rows=1 ", 0), 0u) << response[0];
}

TEST_F(ServerSocketTest, BackslashCommands) {
  Client client(path_);
  auto response = client.Roundtrip("\\set cost_based on\n");
  ASSERT_EQ(response.size(), 1u);
  EXPECT_EQ(response[0], "OK");
  response = client.Roundtrip("\\set threads 2\n");
  EXPECT_EQ(response[0], "OK");
  response = client.Roundtrip("\\set cost_based sideways\n");
  EXPECT_EQ(response[0].rfind("ERR ", 0), 0u) << response[0];
  response = client.Roundtrip("\\frobnicate\n");
  EXPECT_EQ(response[0].rfind("ERR unknown command", 0), 0u) << response[0];
  // Statements still execute with the tuned options.
  response = client.Roundtrip("SELECT COUNT(*) FROM Purchase;\n");
  EXPECT_EQ(response[0].rfind("OK rows=1 ", 0), 0u) << response[0];
  // \quit closes the session cleanly.
  response = client.Roundtrip("\\quit\n");
  EXPECT_EQ(response[0], "OK bye");
}

TEST_F(ServerSocketTest, ConcurrentConnectionsGetOwnSessions) {
  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int k = 0; k < kClients; ++k) {
    threads.emplace_back([&, k] {
      Client client(path_);
      for (int i = 0; i < 5; ++i) {
        auto response = client.Roundtrip(
            "SELECT customer, item FROM Purchase ORDER BY customer, item;\n");
        if (response.empty() || response[0].rfind("OK rows=8 ", 0) != 0) {
          failures.fetch_add(1);
        }
      }
      // Each connection has private options; churn them to prove no
      // cross-talk crashes or leaks settings mid-flight.
      auto set = client.Roundtrip(k % 2 == 0 ? "\\set cost_based on\n"
                                             : "\\set cost_based off\n");
      if (set.empty() || set[0] != "OK") failures.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(socket_server_.connections_accepted(), kClients);
}

// Bounded input (DESIGN.md §16): a statement that exceeds the 1 MiB cap
// without ever reaching its ';' gets a protocol error, bumps the oversized
// counter, and the connection is closed (mid-statement there is no point at
// which the stream could resynchronize).
TEST_F(ServerSocketTest, OversizedStatementRejectedAndConnectionClosed) {
  Counter* oversized =
      GlobalMetrics().GetCounter("server.socket.oversized_statements");
  const int64_t before = oversized->Value();

  Client client(path_);
  // One byte past the cap, no ';' and no newline: the server must reject on
  // size alone, not on statement structure.
  const std::string blob(server::SocketServer::kMaxStatementBytes + 1, 'x');
  client.Send("SELECT " + blob);  // may fail midway once the server closes
  auto response = client.ReadResponse();
  ASSERT_EQ(response.size(), 1u);
  EXPECT_EQ(response[0],
            "ERR statement too large (limit " +
                std::to_string(server::SocketServer::kMaxStatementBytes) +
                " bytes); closing connection");
  EXPECT_EQ(oversized->Value(), before + 1);
  // The connection is gone: the next read sees EOF.
  EXPECT_TRUE(client.Roundtrip("SELECT 1;\n").empty());

  // A fresh connection still works, and a large-but-legal statement passes.
  Client again(path_);
  auto ok = again.Roundtrip("SELECT COUNT(*) FROM Purchase;\n");
  ASSERT_FALSE(ok.empty());
  EXPECT_EQ(ok[0].rfind("OK rows=1 ", 0), 0u) << ok[0];
}

// \set parsing is a hardened surface: every key with good and bad values,
// unknown keys, and malformed lines (exercised directly through the free
// function so the matrix stays cheap).
TEST_F(ServerSocketTest, SetCommandKeyMatrix) {
  auto session = server_.Connect("set-matrix");
  server::Session* s = session.get();

  // Usage errors: wrong token counts.
  EXPECT_EQ(server::ApplySetCommand(s, "\\set"), "ERR usage: \\set NAME VALUE");
  EXPECT_EQ(server::ApplySetCommand(s, "\\set threads"),
            "ERR usage: \\set NAME VALUE");
  EXPECT_EQ(server::ApplySetCommand(s, "\\set threads 2 3"),
            "ERR usage: \\set NAME VALUE");

  // on|off keys, including case-insensitive key names.
  EXPECT_EQ(server::ApplySetCommand(s, "\\set cost_based on"), "OK");
  EXPECT_TRUE(s->options()->cost_based_sql);
  EXPECT_EQ(server::ApplySetCommand(s, "\\set COST_BASED off"), "OK");
  EXPECT_FALSE(s->options()->cost_based_sql);
  EXPECT_EQ(server::ApplySetCommand(s, "\\set cost_based sideways"),
            "ERR expected on|off for \\set cost_based, got 'sideways'");
  EXPECT_EQ(server::ApplySetCommand(s, "\\set cost_based on"), "OK");
  EXPECT_TRUE(s->options()->cost_based_sql);

  // Integer keys: strict parse, no trailing junk, no empty, range-checked.
  EXPECT_EQ(server::ApplySetCommand(s, "\\set threads 3"), "OK");
  EXPECT_EQ(s->options()->num_threads, 3);
  EXPECT_EQ(server::ApplySetCommand(s, "\\set threads 2x"),
            "ERR expected an integer for \\set threads, got '2x'");
  EXPECT_EQ(server::ApplySetCommand(s, "\\set threads banana"),
            "ERR expected an integer for \\set threads, got 'banana'");
  EXPECT_EQ(server::ApplySetCommand(
                s, "\\set memory_limit 99999999999999999999999999"),
            "ERR expected an integer for \\set memory_limit, got "
            "'99999999999999999999999999'");
  EXPECT_EQ(server::ApplySetCommand(s, "\\set memory_limit 65536"), "OK");
  EXPECT_EQ(s->options()->memory_limit, 65536);
  EXPECT_EQ(server::ApplySetCommand(s, "\\set slow_query_micros 250"), "OK");
  EXPECT_EQ(s->slow_query_micros(), 250);
  EXPECT_EQ(server::ApplySetCommand(s, "\\set slow_query_micros 0"), "OK");
  EXPECT_EQ(s->slow_query_micros(), 0);  // 0 disables capture

  // Unknown keys name the key, lower-cased.
  EXPECT_EQ(server::ApplySetCommand(s, "\\set Frobnication on"),
            "ERR unknown option: frobnication");
}

// `vectorized` is not a session setting: a client sending it gets the
// unknown-option error, not a silent OK.
TEST_F(ServerSocketTest, RemovedVectorizedSettingIsUnknown) {
  Client client(path_);
  auto response = client.Roundtrip("\\set vectorized on\n");
  ASSERT_EQ(response.size(), 1u);
  EXPECT_EQ(response[0], "ERR unknown option: vectorized");
  // The connection stays usable.
  response = client.Roundtrip("SELECT COUNT(*) FROM Purchase;\n");
  EXPECT_EQ(response[0].rfind("OK rows=1 ", 0), 0u) << response[0];
}

// \metrics over the wire emits Prometheus text that round-trips through the
// validating parser and carries the socket front end's own counters.
TEST_F(ServerSocketTest, MetricsCommandEmitsValidPrometheus) {
  Client client(path_);
  // Execute something first so statement metrics exist.
  auto warm = client.Roundtrip("SELECT COUNT(*) FROM Purchase;\n");
  ASSERT_FALSE(warm.empty());

  auto response = client.Roundtrip("\\metrics\n");
  ASSERT_FALSE(response.empty());
  std::string body;
  for (const std::string& line : response) body += line + "\n";
  Status valid = ValidatePrometheusText(body);
  EXPECT_TRUE(valid.ok()) << valid << "\n" << body;
  EXPECT_NE(body.find("minerule_server_socket_connections"),
            std::string::npos);
  EXPECT_NE(body.find("minerule_server_socket_statements"), std::string::npos);
}

TEST_F(ServerSocketTest, StopWithLiveConnectionsIsClean) {
  Client client(path_);
  auto response = client.Roundtrip("SELECT COUNT(*) FROM Purchase;\n");
  ASSERT_FALSE(response.empty());
  // Stop while the client is still connected: must not hang or crash, and
  // the client sees EOF rather than a stuck read.
  socket_server_.Stop();
  auto after = client.Roundtrip("SELECT 1;\n");
  EXPECT_TRUE(after.empty());
  // Idempotent.
  socket_server_.Stop();
}

}  // namespace
}  // namespace minerule
