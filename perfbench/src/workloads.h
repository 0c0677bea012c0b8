// The benchmark's workloads and the pieces the untraced and traced runs
// share: seeded inputs, the served set-up, the closed and open loops, and
// the output checks.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "net.h"
#include "src/core/session.h"
#include "src/graph/graph.h"

namespace perfbench {

using nucleus::Degree;
using nucleus::DecomposeOptions;
using nucleus::DecompositionKind;
using nucleus::Graph;
using nucleus::NucleusSession;
using nucleus::VertexId;

// The workload graph: a seeded RMAT graph with Graph500 quadrant
// probabilities, so degrees are skewed like the paper's real networks.
// Scale 12 (4,096 vertex ids, ~3,000 with edges, ~26.7k edges, ~139k
// triangles) keeps a full cold build near 3 s on 4 cores, so a run
// measures several of them.
inline constexpr int kRmatScale = 12;
inline constexpr std::size_t kRmatEdgeFactor = 8;
// Single-edge removals committed over HTTP by served_reads, enough for a
// p75 tail with 47 samples beyond it. (Re-inserting an edge costs the
// (2,3) maintainer 10-20x a removal, so the probes leave insertion to
// churn and the traced run.)
inline constexpr int kProbeUpdates = 190;
// cold_build's in-process update probe: up to kColdProbeUpdates
// single-edge removals, kColdProbeChunk after each cold build. Commit times
// spread 10x from edge to edge, so the median needs a few hundred of them
// to hold still from seed to seed.
inline constexpr int kColdProbeUpdates = 800;
inline constexpr std::size_t kColdProbeChunk = 64;
// Edges the traced run removes and then inserts again, one commit each, to
// time insert maintenance.
inline constexpr int kInsertProbeEdges = 40;
// The number of read segments served_reads and churn split their reads
// into; set-up repetitions and (in served_reads) probe chunks run between.
inline constexpr int kReadSegments = 5;
// Warm reads made on each cold-built session.
inline constexpr int kColdReadsPerBuild = 3000;
// Set-up repetitions; setup_s is their median.
inline constexpr int kSetupReps = 18;
// Churn offered load (fixed rates, open loop). At these rates the
// single-writer commit path keeps up without a growing backlog. Single-edge
// batches (25 ms each at the median) hold the writer lock about an eighth
// of the time, so the read median stays among reads no commit holds up
// while the read p99 lands among those one does. Three reads in four
// return the (2,3) kappa of every edge, which puts the read median near
// 1.2 ms (summary-only reads: 0.6-0.8 ms), so it is mostly the cost of
// serving the kappa and less that of the thread wake-ups around it, which
// other tenants of a shared host stretch from run to run. Every drawn edge is removed and one in 48 comes back: a
// re-insert costs the (2,3) maintainer 10-20x a removal (a median near
// 0.5 s, over 1 s on hub edges), so a mix that toggled every edge would
// outrun the single writer at any rate that gives a run enough commits
// for a tail. Insert maintenance is timed on its own in the traced run
// (core.insert_ms.*, kInsertProbeEdges re-inserts).
inline constexpr double kChurnUpdateRate = 5.0;  // batches per second
inline constexpr int kChurnBatchEdges = 1;
inline constexpr int kChurnReinsertEvery = 48;
inline constexpr double kChurnReadRate = 240.0;  // reads/s over all senders
// One churn read in this many is a warm (2,3) hierarchy; the rest are warm
// (2,3) decomposes with include_kappa.
inline constexpr int kChurnHierarchyEvery = 4;
inline constexpr int kRequestTimeoutMs = 30000;

inline constexpr DecompositionKind kKinds[3] = {
    DecompositionKind::kCore, DecompositionKind::kTruss,
    DecompositionKind::kNucleus34};
inline constexpr const char* kKindNames[3] = {"core", "truss", "nucleus34"};

struct Context {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string server;
  std::string workdir;
  std::string source_digest = "unknown";
  std::string git_sha = "none";  // the checkout need not be a repository
  int threads = 1;  // min(4, nproc)
  int nproc = 1;
};

// Churn read senders: one per thread the benchmark uses, less the update
// sender, at least one. The total read rate is fixed whatever the count.
inline int ChurnReadSenders(const Context& ctx) {
  return ctx.threads > 1 ? ctx.threads - 1 : 1;
}

using Edge = std::pair<VertexId, VertexId>;

struct Batch {
  std::vector<Edge> insert;
  std::vector<Edge> remove;
};

// Generates the seeded graph, writes it as an edge list, and loads it back:
// the loaded graph is exactly what the server sees.
Graph MakeGraph(const Context& ctx, const std::string& path, Tracer& tracer);

// `count` seeded update batches of `edges_per_batch` edges drawn from the
// graph's own edge list: each drawn edge is removed, and one in
// reinsert_every (none when 0) is re-inserted a few batches later.
std::vector<Batch> MakeUpdates(const Graph& g, std::uint64_t seed, int count,
                               int edges_per_batch, int reinsert_every);

DecomposeOptions AndOptions(int threads);

// Applies one batch through the session's update path, with spans around
// BeginUpdates, the maintainer updates, and Commit.
nucleus::Status ApplyBatch(NucleusSession& s, const Batch& b, Tracer& tracer,
                           std::size_t* truss_work);

// Warms a session the way the served graph is warmed: exact (1,2) and
// (2,3) kappa and the (2,3) hierarchy, so commits take the same path.
bool WarmLikeServer(NucleusSession& s, int threads);

// Checks (2,3) kappa served after a sequence of commits: `served` must
// equal the replayed session's kappa id for id (same commits, same id
// space), and the replayed kappa must equal a fresh rebuild on the final
// graph, matched by endpoint pair. Returns "" when both hold.
std::string CheckTrussAfterUpdates(const std::vector<Degree>& served,
                                   NucleusSession& replayed, int threads);

// --- cold_build -----------------------------------------------------------

struct ColdRep {
  double kappa_s = 0, hierarchy_s = 0;
  std::vector<Degree> kappa[3];
  std::size_t nodes[3] = {0, 0, 0};
};

// One cold library build: a fresh session computes exact kappa of all three
// kinds with AND, then the three hierarchies. `reads` (if set) receives the
// latencies of warm reads made on the built session afterwards; `build`
// numbers the build, so each build reads its own seeded mix.
bool ColdBuildOnce(const Context& ctx, const Graph& graph, ColdRep* rep,
                   std::vector<double>* reads, Report& report, int build = 0);

// Exact reference: peel kappa of all three kinds on a separate session must
// equal every rep's AND kappa bitwise, and HierarchyFor(peel kappa) must
// have each rep's hierarchy node count.
void CheckColdAgainstPeel(const Context& ctx, const Graph& graph,
                          const std::vector<ColdRep>& reps, Report& report);

// --- served graph ---------------------------------------------------------

// Starts nucleus_server, logging to <workdir>/<log_name>.
bool StartServer(const Context& ctx, ServerProcess& server, Report& report,
                 const std::string& log_name = "server.log");

// The served set-up is: generate and write the graph, /api/load it, then
// warm (1,2)/(2,3) kappa and the (2,3) hierarchy with cold requests.
// ServedSetupTimer repeats it on a server of its own (so its allocations do
// not count in the measured server's peak RSS), in installments spread
// over the run; kappa_s and hierarchy_s are the cold requests' share.
struct ServedSetup {
  std::vector<double> setup_s, kappa_s, hierarchy_s;
};
class ServedSetupTimer {
 public:
  ServedSetupTimer(const Context& ctx, Report& report);
  // Runs up to `reps` more repetitions, kSetupReps in all.
  void Run(int reps, Report& report);
  const ServedSetup& times() const { return times_; }

 private:
  const Context& ctx_;
  ServerProcess server_;
  std::unique_ptr<HttpConn> conn_;
  ServedSetup times_;
  int next_ = 0;
};

// Loads and warms the workload's graph as "g" on `conn`'s server.
Graph LoadServed(const Context& ctx, HttpConn& conn, Report& report,
                 Tracer& tracer);

// The served_reads request mix; every request is answered from warm state.
// cold_build makes the same mix as in-process calls, where the entries'
// costs differ by orders of magnitude; the shares keep that workload's p50
// inside the decompose calls and its p99 inside the densest calls, away
// from the boundaries between them.
struct MixEntry {
  const char* name;      // metric suffix
  const char* endpoint;  // /api/<endpoint>
  double weight;
};
inline constexpr MixEntry kMix[] = {
    {"decompose", "decompose", 0.30},        // warm truss decompose
    {"decompose_kappa", "decompose", 0.05},  // truss kappa in the body
    {"hierarchy", "hierarchy", 0.20},        // warm truss hierarchy
    {"stats", "stats", 0.23},
    {"densest", "densest", 0.20},
    {"query", "query", 0.02},  // core kind, radius 1
};
inline constexpr int kMixSize = sizeof(kMix) / sizeof(kMix[0]);

int PickMix(Rng& rng);
std::string MixBody(int entry, const Graph& g, Rng& rng, int threads);

struct Sample {
  int entry = 0;
  double ms = 0;
  bool ok = false;
};

struct ClosedLoopResult {
  std::vector<Sample> samples;
  double elapsed_s = 0;
  // First 2xx (request, body) per mix entry.
  std::vector<std::pair<std::string, std::string>> sampled;
  std::vector<std::string> errors;
};

// Closed loop: `conns` client threads, each with one connection, send the
// seeded mix back to back for `seconds`. Each request is a client span.
ClosedLoopResult RunClosedLoop(const Context& ctx, int port, const Graph& g,
                               int conns, double seconds, Tracer& tracer,
                               std::uint64_t salt);

struct OpenLoopResult {
  std::vector<double> read_ms, update_ms, late_ms;
  std::vector<Batch> applied;
  std::size_t reads_ok = 0;
  double read_elapsed_s = 0;  // start to the last read's completion
};

// Open loop at fixed rates (see kChurn*): latency runs from each request's
// due time; lateness is how far past its due time it was sent.
OpenLoopResult RunOpenLoop(const Context& ctx, int port,
                           const std::vector<Batch>& batches, double seconds,
                           Report& report);

// What replaying the applied batches on the oracle session measured.
struct ReplayStats {
  std::size_t truss_work = 0;  // summed LastTrussRepairWork
  int hierarchy_repairs = 0;
  int compactions = 0;
};

// Reads the served (2,3) kappa and checks it against an oracle session that
// replays the applied batches, and the oracle against a fresh rebuild.
void CheckServedAfterUpdates(const Context& ctx, HttpConn& conn,
                             const Graph& graph,
                             const std::vector<Batch>& applied, Report& report,
                             Tracer& tracer, ReplayStats* replay);

// --- results --------------------------------------------------------------

std::string HostHeader(const Context& ctx);
// Milliseconds two fixed single-threaded loops take (median of five each):
// one bound by the core, one by memory latency. The host's speed drifts with
// other tenants' load; these figures, taken at the start and the end of a
// run, tell a slow host from a slow program.
std::string HostProbeJson();
// CPU time of the whole host so far, from /proc/stat: {steal, total}
// jiffies. The steal share over a run is time other tenants' virtual CPUs
// took from this machine's.
std::pair<double, double> HostCpuJiffies();
std::string TailJson(const Tail& t);

// The workloads. Untraced runs report the end-to-end metrics; the traced
// suite reports the per-layer metrics.
void ColdBuild(const Context& ctx, Report& report);
void ServedReads(const Context& ctx, Report& report);
void Churn(const Context& ctx, Report& report);
void TracedSuite(const Context& ctx, Report& report);
void ReportOkShare(Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
