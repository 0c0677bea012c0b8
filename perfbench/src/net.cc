#include "net.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

extern char** environ;

namespace perfbench {

namespace {

using Ms = std::chrono::milliseconds;

// Waits until fd is ready for `events` or the deadline passes.
bool WaitFd(int fd, short events,
            std::chrono::steady_clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<Ms>(
                        deadline - std::chrono::steady_clock::now())
                        .count();
  if (left <= 0) return false;
  pollfd p{fd, events, 0};
  const int r = ::poll(&p, 1, static_cast<int>(left));
  return r > 0;
}

}  // namespace

HttpConn::~HttpConn() { Close(); }

void HttpConn::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buf_.clear();
}

bool HttpConn::Connect() {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port_));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return true;
}

HttpReply HttpConn::Post(const std::string& endpoint, const std::string& body,
                         int timeout_ms) {
  std::string req = "POST /api/" + endpoint +
                    " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: "
                    "application/json\r\nContent-Length: " +
                    std::to_string(body.size()) + "\r\n\r\n" + body;
  return Exchange(req, timeout_ms);
}

HttpReply HttpConn::Get(const std::string& target, int timeout_ms) {
  return Exchange("GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n",
                  timeout_ms);
}

HttpReply HttpConn::Exchange(const std::string& request, int timeout_ms) {
  HttpReply reply;
  const auto deadline =
      std::chrono::steady_clock::now() + Ms(timeout_ms);
  auto fail = [&](const std::string& why) {
    Close();
    reply.status = 0;
    reply.error = why;
    return reply;
  };
  if (fd_ < 0 && !Connect()) return fail("connect failed");
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return fail("send failed");
    }
  }
  // Reads until `need` bytes are buffered.
  auto fill = [&](std::size_t need) -> bool {
    char chunk[65536];
    while (buf_.size() < need) {
      if (!WaitFd(fd_, POLLIN, deadline)) return false;
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n > 0) {
        buf_.append(chunk, static_cast<std::size_t>(n));
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        return false;
      }
    }
    return true;
  };
  std::size_t head_end = std::string::npos;
  while ((head_end = buf_.find("\r\n\r\n")) == std::string::npos) {
    if (!fill(buf_.size() + 1)) return fail("no response head");
  }
  const std::string head = buf_.substr(0, head_end);
  if (head.compare(0, 9, "HTTP/1.1 ") != 0 || head.size() < 12) {
    return fail("bad status line");
  }
  reply.status = std::atoi(head.c_str() + 9);
  std::size_t length = 0;
  bool have_length = false;
  bool close_after = false;
  std::istringstream lines(head);
  std::string line;
  while (std::getline(lines, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string key = line.substr(0, colon);
    for (char& c : key) c = static_cast<char>(std::tolower(c));
    std::string value = line.substr(colon + 1);
    while (!value.empty() && value.front() == ' ') value.erase(0, 1);
    if (key == "content-length") {
      length = std::strtoull(value.c_str(), nullptr, 10);
      have_length = true;
    } else if (key == "connection" && value == "close") {
      close_after = true;
    }
  }
  if (!have_length) return fail("response without Content-Length");
  const std::size_t body_start = head_end + 4;
  if (!fill(body_start + length)) return fail("truncated body");
  reply.body = buf_.substr(body_start, length);
  buf_.erase(0, body_start + length);
  if (close_after) Close();
  return reply;
}

double PeakRssMb(const std::string& proc_status_path) {
  std::ifstream in(proc_status_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, 6, "VmHWM:") == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

bool ServerProcess::Start(const std::string& binary, int threads,
                          const std::string& log_path, std::string* error) {
  const std::string workers = std::to_string(threads);
  std::vector<std::string> args = {binary, "--port", "0", "--workers", workers};
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    *error = "cannot start " + binary + ": " + std::strerror(rc);
    return false;
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    std::ifstream log(log_path);
    std::string line;
    while (std::getline(log, line)) {
      const std::size_t at = line.find("listening on 127.0.0.1:");
      if (at != std::string::npos) {
        port_ = std::atoi(line.c_str() + at + 23);
        if (port_ > 0) return true;
      }
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      *error = "server exited during start; see " + log_path;
      return false;
    }
    std::this_thread::sleep_for(Ms(5));
  }
  *error = "server did not report its port";
  Stop();
  return false;
}

void ServerProcess::Stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  int status = 0;
  for (int i = 0; i < 500; ++i) {
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return;
    }
    std::this_thread::sleep_for(Ms(10));
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
}

double ServerProcess::PeakRssMb() const {
  if (pid_ <= 0) return 0.0;
  return perfbench::PeakRssMb("/proc/" + std::to_string(pid_) + "/status");
}

}  // namespace perfbench
