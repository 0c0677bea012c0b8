#include "common.h"

#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {
// Open spans of the calling thread, innermost last. A process holds one
// tracer, so one stack per thread suffices.
thread_local std::vector<int> t_open;
}  // namespace

int Tracer::Open(const std::string& name, std::uint64_t request) {
  Span s;
  s.name = name;
  s.parent = t_open.empty() ? -1 : t_open.back();
  s.request = request;
  s.start_ns = NowNs();
  int id = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    id = static_cast<int>(spans_.size());
    spans_.push_back(std::move(s));
  }
  t_open.push_back(id);
  return id;
}

void Tracer::Close(int id) {
  const std::int64_t end = NowNs();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = end;
}

void Tracer::Add(const std::string& name, Clock::time_point start,
                 Clock::time_point end, std::uint64_t request) {
  if (!enabled_) return;
  Span s;
  s.name = name;
  s.parent = t_open.empty() ? -1 : t_open.back();
  s.request = request;
  s.start_ns = Ns(start);
  s.end_ns = Ns(end);
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(std::move(s));
}

double Tracer::SelfSeconds(const std::string& prefix, std::uint64_t req_lo,
                           std::uint64_t req_hi) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  double total_ns = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name.compare(0, prefix.size(), prefix) != 0) continue;
    if (s.request < req_lo || s.request > req_hi) continue;
    // Union of the child intervals clipped to this span.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t run_start = 0;
    std::int64_t run_end = -1;
    for (auto [a, b] : kids) {
      a = std::max(a, s.start_ns);
      b = std::min(b, s.end_ns);
      if (b <= a) continue;
      if (a > run_end) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = a;
        run_end = b;
      } else {
        run_end = std::max(run_end, b);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    total_ns += static_cast<double>(s.end_ns - s.start_ns - covered);
  }
  return total_ns * 1e-9;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back((s.end_ns - s.start_ns) * 1e-9);
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":" << JsonString(s.name)
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Report::DetailsJson() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : details_) {
    if (!first) out += ",";
    first = false;
    out += JsonString(k) + ":" + v;
  }
  if (!failures_.empty()) {
    out += std::string(first ? "" : ",") + "\"failures\":[";
    for (std::size_t i = 0; i < failures_.size(); ++i) {
      out += (i ? "," : "") + JsonString(failures_[i]);
    }
    out += "]";
  }
  return out + "}";
}

std::string Report::ResultJson() const {
  std::string out = "{\"correct\":";
  out += correct_ ? "true" : "false";
  out += ",\"attempted\":" +
         std::to_string(std::max<std::uint64_t>(attempted_, 1));
  out += ",\"failed\":" + std::to_string(failed_);
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    if (!first) out += ",";
    first = false;
    out += JsonString(name) + ":{\"value\":" + JsonNumber(vu.first) +
           ",\"unit\":" + JsonString(vu.second) + "}";
  }
  return out + "}}";
}

}  // namespace perfbench
