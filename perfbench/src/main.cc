// Repository benchmark driver. One binary runs the three workloads against
// the nucleus library and the shipped nucleus_server:
//
//   perfbench_driver --workload cold_build|served_reads|churn --seed N
//       --seconds S --trace 0|1 --server PATH --workdir DIR
//       [--source-digest HEX] [--git-sha SHA]
//
// With --trace 0 it measures the end-to-end metrics with no tracing; with
// --trace 1 it runs the traced suite that reports the per-layer metrics.
// The last stdout line is the result object; the line before it holds the
// host/build header and the details behind each figure.
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload "
               "cold_build|served_reads|churn --seed N --seconds S "
               "--trace 0|1 --server PATH --workdir DIR "
               "[--source-digest HEX] [--git-sha SHA]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Context ctx;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) Usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      ctx.workload = v;
    } else if (a == "--seed") {
      ctx.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      ctx.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      ctx.trace = v == "1";
    } else if (a == "--server") {
      ctx.server = v;
    } else if (a == "--workdir") {
      ctx.workdir = v;
    } else if (a == "--source-digest") {
      ctx.source_digest = v;
    } else if (a == "--git-sha") {
      ctx.git_sha = v;
    } else {
      Usage();
    }
  }
  if ((ctx.workload != "cold_build" && ctx.workload != "served_reads" &&
       ctx.workload != "churn") ||
      ctx.seconds <= 0 || ctx.server.empty() || ctx.workdir.empty()) {
    Usage();
  }
  ctx.nproc =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  ctx.threads = std::min(4, ctx.nproc);
  ::mkdir(ctx.workdir.c_str(), 0755);

  perfbench::Report report;
  report.Detail("header", perfbench::HostHeader(ctx));
  const auto cpu_start = perfbench::HostCpuJiffies();
  const std::string probe_start = perfbench::HostProbeJson();
  if (ctx.trace) {
    perfbench::TracedSuite(ctx, report);
  } else if (ctx.workload == "cold_build") {
    perfbench::ColdBuild(ctx, report);
  } else if (ctx.workload == "served_reads") {
    perfbench::ServedReads(ctx, report);
  } else {
    perfbench::Churn(ctx, report);
  }
  if (!ctx.trace) perfbench::ReportOkShare(report);
  const auto cpu_end = perfbench::HostCpuJiffies();
  const double cpu_total = cpu_end.second - cpu_start.second;
  report.Detail("host_probe",
                "{\"start\":" + probe_start + ",\"end\":" +
                    perfbench::HostProbeJson() + ",\"steal_share\":" +
                    perfbench::JsonNumber(
                        cpu_total > 0
                            ? (cpu_end.first - cpu_start.first) / cpu_total
                            : 0) +
                    "}");
  std::printf("%s\n%s\n", report.DetailsJson().c_str(),
              report.ResultJson().c_str());
  return 0;
}
