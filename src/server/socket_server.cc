#include "server/socket_server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/log.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "server/session.h"

namespace minerule::server {

namespace {

std::string CollapseNewlines(std::string s) {
  for (char& c : s) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return s;
}

bool WriteAll(int fd, const std::string& data) {
  static Counter* bytes_written =
      GlobalMetrics().GetCounter("server.socket.bytes_written");
  size_t off = 0;
  while (off < data.size()) {
    // MSG_NOSIGNAL: a client that disconnected mid-response must yield
    // EPIPE here, not kill the whole server with SIGPIPE.
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  bytes_written->Add(static_cast<int64_t>(data.size()));
  return true;
}

std::string TrimRight(std::string s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.pop_back();
  }
  return s;
}

/// Strict base-10 integer parse: the whole token must be a number.
bool ParseInt64Strict(const std::string& text, int64_t* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size() || errno == ERANGE) return false;
  *out = static_cast<int64_t>(parsed);
  return true;
}

}  // namespace

std::string ApplySetCommand(Session* session, const std::string& line) {
  std::vector<std::string> parts;
  std::string word;
  for (char c : line) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!word.empty()) parts.push_back(std::move(word));
      word.clear();
    } else {
      word.push_back(c);
    }
  }
  if (!word.empty()) parts.push_back(std::move(word));
  if (parts.size() != 3) return "ERR usage: \\set NAME VALUE";
  const std::string name = ToLower(parts[1]);
  const std::string& value = parts[2];
  mr::MiningOptions* options = session->options();
  auto on_off = [&](bool* flag) -> std::string {
    if (value == "on") {
      *flag = true;
    } else if (value == "off") {
      *flag = false;
    } else {
      return "ERR expected on|off for \\set " + name + ", got '" + value +
             "'";
    }
    return "OK";
  };
  auto integer = [&](auto apply) -> std::string {
    int64_t parsed = 0;
    if (!ParseInt64Strict(value, &parsed)) {
      return "ERR expected an integer for \\set " + name + ", got '" +
             value + "'";
    }
    apply(parsed);
    return "OK";
  };
  if (name == "cost_based") return on_off(&options->cost_based_sql);
  if (name == "threads") {
    return integer(
        [&](int64_t v) { options->num_threads = static_cast<int>(v); });
  }
  if (name == "memory_limit") {
    return integer([&](int64_t v) { options->memory_limit = v; });
  }
  if (name == "slow_query_micros") {
    return integer([&](int64_t v) { session->set_slow_query_micros(v); });
  }
  return "ERR unknown option: " + name;
}

namespace {

std::string FormatResponse(const SessionResult& result) {
  std::string out = "OK rows=" +
                    std::to_string(result.query.rows.size()) +
                    " affected=" +
                    std::to_string(result.query.affected_rows) + " rules=" +
                    std::to_string(result.is_mine_rule()
                                       ? result.mining.output.num_rules
                                       : 0) +
                    " run=" + std::to_string(result.run_id) +
                    " epoch=" + std::to_string(result.epoch_end) + "\n";
  if (!result.query.rows.empty()) {
    for (size_t i = 0; i < result.query.schema.num_columns(); ++i) {
      if (i > 0) out += '\t';
      out += result.query.schema.column(i).name;
    }
    out += '\n';
    for (const Row& row : result.query.rows) {
      for (size_t i = 0; i < row.size(); ++i) {
        if (i > 0) out += '\t';
        out += row[i].ToString();
      }
      out += '\n';
    }
  }
  out += ".\n";
  return out;
}

}  // namespace

SocketServer::SocketServer(Server* server, std::string socket_path)
    : server_(server), socket_path_(std::move(socket_path)) {}

SocketServer::~SocketServer() { Stop(); }

Status SocketServer::Start() {
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal("socket: " + std::string(std::strerror(errno)));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path_.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + socket_path_);
  }
  std::strncpy(addr.sun_path, socket_path_.c_str(),
               sizeof(addr.sun_path) - 1);
  ::unlink(socket_path_.c_str());
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Status::Internal("bind " + socket_path_ + ": " +
                            std::strerror(errno));
  }
  if (::listen(listen_fd_, 64) != 0) {
    return Status::Internal("listen: " + std::string(std::strerror(errno)));
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void SocketServer::AcceptLoop() {
  static Counter* connections =
      GlobalMetrics().GetCounter("server.socket.connections");
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down
    }
    connections->Increment();
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connection_fds_.push_back(fd);
    connection_threads_.emplace_back(
        [this, fd] { ServeConnection(fd); });
  }
}

void SocketServer::ServeConnection(int fd) {
  static Counter* statements =
      GlobalMetrics().GetCounter("server.socket.statements");
  static Counter* bytes_read =
      GlobalMetrics().GetCounter("server.socket.bytes_read");
  static Counter* oversized =
      GlobalMetrics().GetCounter("server.socket.oversized_statements");

  std::unique_ptr<Session> session = server_->Connect();
  GlobalLog().Log(LogLevel::kInfo, "server.socket", "connection opened",
                  {{"fd", fd}, {"session", session->id()}});
  std::string pending;    // raw bytes not yet split into lines
  std::string statement;  // lines accumulated toward the next ';'
  char buf[4096];
  bool open = true;
  bool rejected_oversized = false;
  while (open) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    bytes_read->Add(n);
    pending.append(buf, static_cast<size_t>(n));

    // Bounded input (DESIGN.md §16): everything buffered toward the next
    // statement — raw bytes plus accumulated lines — must fit the cap. A
    // violating connection is closed: mid-statement there is no stream
    // position at which the protocol could resynchronize.
    if (pending.size() + statement.size() > kMaxStatementBytes) {
      oversized->Increment();
      rejected_oversized = true;
      GlobalLog().Log(LogLevel::kWarn, "server.socket",
                      "oversized statement rejected",
                      {{"session", session->id()},
                       {"buffered", static_cast<int64_t>(pending.size() +
                                                         statement.size())},
                       {"limit", static_cast<int64_t>(kMaxStatementBytes)}});
      WriteAll(fd, "ERR statement too large (limit " +
                       std::to_string(kMaxStatementBytes) +
                       " bytes); closing connection\n.\n");
      break;
    }

    size_t newline;
    while (open && (newline = pending.find('\n')) != std::string::npos) {
      std::string line = pending.substr(0, newline);
      pending.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();

      const size_t first =
          line.find_first_not_of(" \t");
      if (first != std::string::npos && line[first] == '\\') {
        const std::string command = TrimRight(line.substr(first));
        if (command == "\\quit") {
          WriteAll(fd, "OK bye\n.\n");
          open = false;
          break;
        }
        if (command == "\\metrics") {
          // Prometheus text exposition (DESIGN.md §16). No sample line can
          // collide with the '.' response terminator.
          WriteAll(fd, GlobalMetrics().FormatPrometheus() + ".\n");
        } else if (command.rfind("\\set", 0) == 0) {
          WriteAll(fd, ApplySetCommand(session.get(), command) + "\n.\n");
        } else {
          WriteAll(fd, "ERR unknown command: " + command + "\n.\n");
        }
        continue;
      }

      statement += line;
      statement += '\n';
      const std::string trimmed = TrimRight(statement);
      if (trimmed.empty()) {
        statement.clear();
        continue;
      }
      if (trimmed.back() != ';') continue;

      // Strip the terminator and execute.
      statements->Increment();
      const std::string text = trimmed.substr(0, trimmed.size() - 1);
      statement.clear();
      Result<SessionResult> result = session->Execute(text);
      if (result.ok()) {
        if (!WriteAll(fd, FormatResponse(*result))) open = false;
      } else {
        if (!WriteAll(fd, "ERR " +
                              CollapseNewlines(result.status().ToString()) +
                              "\n.\n")) {
          open = false;
        }
      }
    }
  }

  // A connection that died with a statement half-assembled (or was cut off
  // for an oversized statement) ended uncleanly: dump the session's flight
  // recorder so the operator sees what led up to it (DESIGN.md §16).
  const bool unclean =
      rejected_oversized || !TrimRight(statement + pending).empty();
  if (unclean && GlobalLog().Enabled(LogLevel::kWarn)) {
    GlobalLog().Log(LogLevel::kWarn, "server.socket",
                    "connection ended mid-statement",
                    {{"session", session->id()},
                     {"flight", session->flight_recorder()->DumpJson(
                                    session->id())}});
  }
  GlobalLog().Log(LogLevel::kInfo, "server.socket", "connection closed",
                  {{"fd", fd},
                   {"session", session->id()},
                   {"statements", session->flight_recorder()->recorded()}});
  ::close(fd);
}

void SocketServer::Stop() {
  if (stopping_.exchange(true)) {
    return;  // already stopped
  }
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<int> fds;
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    fds.swap(connection_fds_);
    threads.swap(connection_threads_);
  }
  for (int fd : fds) ::shutdown(fd, SHUT_RDWR);
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  ::unlink(socket_path_.c_str());
  listen_fd_ = -1;
}

}  // namespace minerule::server
