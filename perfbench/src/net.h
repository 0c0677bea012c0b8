// Loopback plumbing: a keep-alive HTTP/1.1 client connection and the
// lifecycle of one nucleus_server child process.
#ifndef PERFBENCH_NET_H_
#define PERFBENCH_NET_H_

#include <sys/types.h>

#include <cstdint>
#include <string>

namespace perfbench {

struct HttpReply {
  int status = 0;  // 0 = transport failure (connect, timeout, bad framing)
  std::string body;
  std::string error;
};

// One persistent connection to 127.0.0.1:port. Requests are sent one at a
// time; a transport failure closes the socket and the next request
// reconnects.
class HttpConn {
 public:
  explicit HttpConn(int port) : port_(port) {}
  ~HttpConn();
  HttpConn(const HttpConn&) = delete;
  HttpConn& operator=(const HttpConn&) = delete;

  HttpReply Post(const std::string& endpoint, const std::string& body,
                 int timeout_ms = 30000);
  HttpReply Get(const std::string& target, int timeout_ms = 30000);

 private:
  HttpReply Exchange(const std::string& request, int timeout_ms);
  bool Connect();
  void Close();

  const int port_;
  int fd_ = -1;
  std::string buf_;  // bytes received past the previous response
};

// A nucleus_server started with --port 0 on loopback. Stop() (or the
// destructor) sends SIGTERM, escalates to SIGKILL after a grace period,
// and reaps the child.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  // Starts `binary` with `threads` workers, logging to `log_path`, and
  // waits for its "listening on" line. False (with `error`) on failure.
  bool Start(const std::string& binary, int threads,
             const std::string& log_path, std::string* error);
  void Stop();
  int port() const { return port_; }
  // Peak resident set (VmHWM) of the server so far, in MiB.
  double PeakRssMb() const;

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

// Peak resident set (VmHWM) of a process, in MiB; 0 when unreadable.
double PeakRssMb(const std::string& proc_status_path);

}  // namespace perfbench

#endif  // PERFBENCH_NET_H_
