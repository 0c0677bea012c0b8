// The traced run: per-layer metrics from spans the benchmark puts around
// its calls into each layer's public functions (graph, clique, local, peel,
// core, server). Every traced run measures every layer on the workload's
// graph; the workload's own path gets the run's --seconds, the others a
// short fixed probe. End-to-end metrics never come from this run.
#include <algorithm>
#include <map>
#include <optional>
#include <string>

#include "src/clique/csr_space.h"
#include "src/clique/edge_index.h"
#include "src/clique/spaces.h"
#include "src/clique/triangles.h"
#include "src/local/and.h"
#include "src/local/query.h"
#include "src/local/trace.h"
#include "src/peel/peel_engine.h"
#include "src/server/json.h"
#include "src/server/server_core.h"
#include "workloads.h"

namespace perfbench {

namespace {

using nucleus::CoreSpace;
using nucleus::CsrSpace;
using nucleus::JsonValue;
using nucleus::LocalResult;
using nucleus::Nucleus34Space;
using nucleus::TrussSpace;

// Request ids that tag spans by phase, so self times can be taken per
// phase: traced cold builds use 1..999.
constexpr std::uint64_t kScalingRequest = 1000;
constexpr std::uint64_t kWarmReadRequest = 1001;
constexpr std::uint64_t kInProcessServerRequest = 1002;

const std::uint64_t kArenaBudget = DecomposeOptions{}.materialize_budget_bytes;

template <typename Space>
LocalResult RunAnd(const Space& space, int threads) {
  nucleus::AndOptions o;
  o.local.threads = threads;
  o.local.materialize = nucleus::Materialize::kOff;
  return nucleus::AndGeneric(space, o);
}

// Times `fn` under a span.
template <typename Fn>
double Timed(Tracer& tracer, const std::string& name, std::uint64_t request,
             Fn&& fn) {
  const auto t0 = Clock::now();
  {
    ScopedSpan span(tracer, name, request);
    fn();
  }
  return SecondsSince(t0);
}

// One traced cold build: a fresh NucleusSession makes the calls an untraced
// build makes (Decompose of each kind with AND, then Hierarchy of each
// kind), each under a core span. The session times the phases of a cold
// Decompose itself (index build, arena build, engine run); those intervals
// become child spans in the clique and local layers, so the per-layer
// figures are the session's own. Hierarchy calls build from the cached
// kappa, which is the peel layer's hierarchy build. Sweep and update counts
// come from a ConvergenceTrace the session's engine fills, arena bytes from
// the session's Stats().
struct TracedRep {
  double kappa_s = 0, hierarchy_s = 0;
  std::vector<Degree> kappa[3];
  std::size_t nodes[3] = {0, 0, 0};
  std::map<std::string, std::pair<double, const char*>> figures;  // value, unit

  void Set(const std::string& name, double value, const char* unit) {
    figures[name] = {value, unit};
  }
};

const char* const kIndexSpan[3] = {nullptr, "clique.edge_index",
                                   "clique.triangle_index"};

TracedRep TracedColdBuild(const Context& ctx, const Graph& graph,
                          Tracer& tracer, std::uint64_t request,
                          Report& report) {
  TracedRep m;
  Graph copy(graph);
  const auto t0 = Clock::now();
  ScopedSpan root(tracer, "core.cold_build", request);
  NucleusSession s(std::move(copy));
  for (int k = 0; k < 3; ++k) {
    const std::string n = kKindNames[k];
    nucleus::ConvergenceTrace trace;
    DecomposeOptions o = AndOptions(ctx.threads);
    o.trace = &trace;
    report.Attempt();
    ScopedSpan call(tracer, "core.decompose." + n, request);
    const auto c0 = Clock::now();
    auto r = s.Decompose(kKinds[k], o);
    const auto c1 = Clock::now();
    if (!r.ok() || !r->exact) {
      report.Fail("traced decompose " + n);
      return m;
    }
    // Index, then arena, at the start of the call; the engine run at its
    // end (only the result's copy into the cache follows it).
    auto after = [](Clock::time_point t, double s) {
      return t + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(s));
    };
    const auto index_end = after(c0, r->index_seconds);
    const auto arena_end = after(index_end, r->arena_seconds);
    if (kIndexSpan[k] != nullptr) {
      tracer.Add(kIndexSpan[k], c0, index_end, request);
      m.Set(std::string(kIndexSpan[k]) + "_s", r->index_seconds, "s");
    }
    if (r->arena_seconds > 0) {
      tracer.Add("clique.arena." + n, index_end, arena_end, request);
      m.Set("clique.arena_s." + n, r->arena_seconds, "s");
    }
    tracer.Add("local.and." + n, after(c1, -r->seconds), c1, request);
    m.Set("local.and_s." + n, r->seconds, "s");
    double updates = 0;
    for (std::size_t u : trace.updates_per_iteration) updates += u;
    // Visits: every sweep, including the final one that changes nothing,
    // scans every r-clique; the engine exposes no finer visit counter.
    const double visits = static_cast<double>(r->iterations + 1) *
                          static_cast<double>(r->num_r_cliques);
    m.Set("local.and_iterations." + n, r->iterations, "count");
    m.Set("local.and_updates." + n, updates, "count");
    m.Set("local.useful_update_ratio." + n, updates / visits, "ratio");
    m.kappa[k] = std::move(r->kappa);
  }
  m.kappa_s = SecondsSince(t0);

  const auto t1 = Clock::now();
  for (int k = 0; k < 3; ++k) {
    const std::string n = kKindNames[k];
    report.Attempt();
    const auto h0 = Clock::now();
    nucleus::StatusOr<const nucleus::NucleusHierarchy*> h =
        nucleus::Status::Internal("unset");
    {
      ScopedSpan span(tracer, "peel.hierarchy." + n, request);
      h = s.Hierarchy(kKinds[k], AndOptions(ctx.threads));
    }
    if (!h.ok()) {
      report.Fail("traced hierarchy " + n);
      return m;
    }
    m.Set("peel.hierarchy_s." + n, SecondsSince(h0), "s");
    m.nodes[k] = (*h)->nodes.size();
    m.Set("peel.hierarchy_nodes." + n, static_cast<double>(m.nodes[k]),
          "count");
  }
  m.hierarchy_s = SecondsSince(t1);
  const nucleus::SessionStateStats st = s.Stats();
  m.Set("clique.triangles", static_cast<double>(st.live_triangles), "count");
  for (int k = 1; k < 3; ++k) {
    m.Set(std::string("clique.arena_bytes.") + kKindNames[k],
          static_cast<double>(st.arena_bytes[k] + st.arena_compressed_bytes[k]),
          "bytes");
  }
  return m;
}

// AND at 1, 2 and nproc threads over prebuilt (2,3) and (3,4) arenas, the
// sequential peel as the plain single-threaded baseline, and the exact
// (3,4) peel reference at the benchmark's thread count.
void ScalingAndPeel(const Context& ctx, const Graph& graph, Tracer& tracer,
                    const ColdRep& reference, Report& report) {
  const nucleus::EdgeIndex edges(graph);
  const nucleus::TriangleIndex tris(graph, ctx.threads);
  const TrussSpace truss(graph, edges);
  const Nucleus34Space n34(graph, tris);
  const auto truss_arena = CsrSpace<TrussSpace>::TryBuild(
      truss, ctx.threads, kArenaBudget, nullptr);
  const auto n34_arena = CsrSpace<Nucleus34Space>::TryBuild(
      n34, ctx.threads, kArenaBudget, nullptr);
  if (!truss_arena || !n34_arena) {
    report.Fail("arena over budget");
    return;
  }
  // Times `run` under `name`, reports it, and checks its kappa.
  auto measure = [&](const std::string& name, int k, auto&& run) {
    std::vector<Degree> kappa;
    report.Metric(name,
                  Timed(tracer, name, kScalingRequest, [&] { kappa = run(); }),
                  "s");
    if (kappa != reference.kappa[k]) {
      report.Mismatch(name + ": kappa differs from the traced build");
    }
  };
  const std::pair<const char*, int> counts[] = {
      {"t1", 1}, {"t2", 2}, {"tmax", ctx.nproc}};
  for (const auto& [suffix, t] : counts) {
    measure(std::string("local.and_s.truss.") + suffix, 1,
            [&] { return RunAnd(*truss_arena, t).tau; });
    measure(std::string("local.and_s.nucleus34.") + suffix, 2,
            [&] { return RunAnd(*n34_arena, t).tau; });
  }
  nucleus::PeelOptions seq;
  seq.strategy = nucleus::PeelStrategy::kSequential;
  nucleus::PeelOptions par;
  par.threads = ctx.threads;
  measure("peel.peel_s.truss.sequential", 1,
          [&] { return nucleus::PeelDecomposition(*truss_arena, seq).kappa; });
  measure("peel.peel_s.nucleus34.sequential", 2,
          [&] { return nucleus::PeelDecomposition(*n34_arena, seq).kappa; });
  measure("peel.peel_s.nucleus34", 2,
          [&] { return nucleus::PeelDecomposition(*n34_arena, par).kappa; });
}

// Warm session reads and radius-1 core queries, as the served mix makes
// them, called directly.
void WarmReadsAndQueries(const Context& ctx, const Graph& graph,
                         Tracer& tracer, Report& report) {
  NucleusSession s{Graph(graph)};
  if (!WarmLikeServer(s, ctx.threads)) {
    report.Fail("warm-up");
    return;
  }
  const DecomposeOptions o = AndOptions(ctx.threads);
  std::vector<double> dec, hier, query;
  bool ok = true;
  for (int i = 0; i < 200; ++i) {
    dec.push_back(Timed(tracer, "core.decompose_warm", kWarmReadRequest, [&] {
      ok = s.Decompose(DecompositionKind::kTruss, o).ok() && ok;
    }));
    hier.push_back(Timed(tracer, "core.hierarchy_warm", kWarmReadRequest, [&] {
      ok = s.Hierarchy(DecompositionKind::kTruss, o).ok() && ok;
    }));
  }
  if (!ok) report.Fail("warm read");
  Rng rng(ctx.seed * 31 + 7);
  nucleus::QueryOptions qo;
  qo.radius = 1;
  for (int i = 0; i < 100; ++i) {
    const std::vector<VertexId> ids = {
        static_cast<VertexId>(rng.Below(graph.NumVertices()))};
    query.push_back(Timed(tracer, "local.query", kWarmReadRequest, [&] {
      nucleus::EstimateCoreNumbers(graph, ids, qo);
    }));
  }
  report.Metric("core.decompose_warm_us", Median(dec) * 1e6, "us");
  report.Metric("core.hierarchy_warm_us", Median(hier) * 1e6, "us");
  report.Metric("local.query_ms", Median(query) * 1e3, "ms");
}

// The served mix through an in-process ServerCore: HandleDirect (dispatch,
// JSON parse, session call, serialize) and Handle (the same behind the
// admission queue), so queue wait is their difference.
void InProcessServer(const Context& ctx, const std::string& path,
                     const Graph& graph, Tracer& tracer, Report& report) {
  nucleus::ServerConfig config;
  config.workers = ctx.threads;
  nucleus::ServerCore core(config);
  const std::string th = ",\"threads\":" + std::to_string(ctx.threads);
  const std::pair<std::string, std::string> warm_up[] = {
      {"load", "{\"name\":\"g\",\"path\":\"" + path + "\"}"},
      {"decompose", "{\"graph\":\"g\",\"kind\":\"core\"" + th + "}"},
      {"decompose", "{\"graph\":\"g\",\"kind\":\"truss\"" + th + "}"},
      {"hierarchy", "{\"graph\":\"g\",\"kind\":\"truss\"" + th + "}"}};
  for (const auto& [ep, body] : warm_up) {
    if (!core.HandleDirect({ep, body}).status.ok()) {
      report.Fail("in-process " + ep);
    }
  }
  Rng rng(ctx.seed * 131 + 3);
  for (int e = 0; e < kMixSize; ++e) {
    const std::string n = kMix[e].name;
    std::vector<double> direct, handle;
    double bytes = 0;
    bool ok = true;
    for (int i = 0; i < 40; ++i) {
      const nucleus::ServerRequest req{kMix[e].endpoint,
                                       MixBody(e, graph, rng, ctx.threads)};
      nucleus::ServerResponse resp;
      direct.push_back(Timed(tracer, "server.handle_direct." + n,
                             kInProcessServerRequest,
                             [&] { resp = core.HandleDirect(req); }));
      bytes = static_cast<double>(resp.body.size());
      ok = resp.status.ok() && ok;
      handle.push_back(Timed(tracer, "server.handle." + n,
                             kInProcessServerRequest,
                             [&] { resp = core.Handle(req); }));
      ok = resp.status.ok() && ok;
    }
    if (!ok) report.Fail("in-process " + n);
    report.Metric("server.handle_direct_us." + n, Median(direct) * 1e6, "us");
    report.Metric("server.queue_wait_us." + n,
                  (Median(handle) - Median(direct)) * 1e6, "us");
    report.Metric("server.response_bytes." + n, bytes, "bytes");
  }
}

// Per-endpoint server-side latency (count, mean ms) from /metricz.
using LatencyTable = std::map<std::string, std::pair<double, double>>;
LatencyTable ServerLatencies(HttpConn& conn) {
  LatencyTable out;
  const HttpReply r = conn.Get("/metricz");
  auto parsed = JsonValue::Parse(r.body);
  if (r.status != 200 || !parsed.ok()) return out;
  const JsonValue* lat = parsed->Find("latency_ms");
  if (lat == nullptr) return out;
  for (const auto& [name, h] : lat->AsObject()) {
    const JsonValue* c = h.Find("count");
    const JsonValue* m = h.Find("mean");
    if (c != nullptr && m != nullptr) {
      out[name] = {c->AsDouble(), m->AsDouble()};
    }
  }
  return out;
}

// Client round trip minus the server's own latency for the same endpoint
// over the same interval (before/after /metricz), weighted by request
// count, in microseconds.
double TransportUs(const ClosedLoopResult& loop, const LatencyTable& before,
                   const LatencyTable& after) {
  LatencyTable client;  // count, summed ms
  for (const Sample& s : loop.samples) {
    auto& c = client[std::string("latency.") + kMix[s.entry].endpoint];
    c.first += 1;
    c.second += s.ms;
  }
  double weighted = 0, total = 0;
  for (const auto& [name, c] : client) {
    const auto a = after.find(name);
    if (a == after.end()) continue;
    const auto b = before.find(name);
    const auto [n0, mean0] =
        b == before.end() ? std::pair<double, double>{0, 0} : b->second;
    const double n = a->second.first - n0;
    if (n <= 0) continue;
    const double server_mean =
        (a->second.first * a->second.second - n0 * mean0) / n;
    weighted += c.second - c.first * server_mean;
    total += c.first;
  }
  return total > 0 ? weighted / total * 1e3 : 0;
}

// Single-edge re-inserts: a session warmed like the served graph removes
// kInsertProbeEdges seeded edges, one batch each, then inserts them again,
// one batch each. Each insert's BeginUpdates-to-Commit time is an insert
// figure: churn re-inserts few edges, so insert maintenance shows here.
void InsertProbe(const Context& ctx, const Graph& graph, Tracer& tracer,
                 Report& report) {
  NucleusSession s{Graph(graph)};
  report.Attempt();
  if (!WarmLikeServer(s, ctx.threads)) {
    report.Fail("insert probe warm-up");
    return;
  }
  const std::vector<Batch> removals =
      MakeUpdates(graph, ctx.seed + 1, kInsertProbeEdges, 1, 0);
  for (const Batch& b : removals) {
    report.Attempt();
    const nucleus::Status st = ApplyBatch(s, b, tracer, nullptr);
    if (!st.ok()) report.Fail("insert probe removal: " + st.ToString());
  }
  std::vector<double> ms;
  for (const Batch& b : removals) {
    Batch insert;
    insert.insert = b.remove;
    report.Attempt();
    const auto t0 = Clock::now();
    const nucleus::Status st = ApplyBatch(s, insert, tracer, nullptr);
    if (st.ok()) {
      ms.push_back(SecondsSince(t0) * 1e3);
    } else {
      report.Fail("insert commit: " + st.ToString());
    }
  }
  auto kappa = s.Decompose(DecompositionKind::kTruss, AndOptions(ctx.threads));
  const std::string why =
      kappa.ok() ? CheckTrussAfterUpdates(kappa->kappa, s, ctx.threads)
                 : "insert probe read failed";
  if (!why.empty()) report.Mismatch(why);
  const Tail tail = TailOf(ms);
  report.Metric("core.insert_ms.p50", Median(ms), "ms");
  report.Metric("core.insert_ms.tail", tail.value, "ms");
  report.Detail("core.insert_ms.tail", TailJson(tail));
}

}  // namespace

void TracedSuite(const Context& ctx, Report& report) {
  Tracer tracer(true);
  const bool cold = ctx.workload == "cold_build";
  const bool served = ctx.workload == "served_reads";
  const bool churn = ctx.workload == "churn";
  const std::string path = ctx.workdir + "/graph-traced.txt";
  const Graph graph = MakeGraph(ctx, path, tracer);

  // Cold build: untraced and traced session builds, alternating, so both
  // see the same host conditions.
  const double cold_budget = cold ? ctx.seconds : 0;
  std::vector<ColdRep> plain;
  std::vector<TracedRep> traced_reps;
  for (auto start = Clock::now();
       traced_reps.empty() || SecondsSince(start) < cold_budget;) {
    ColdRep rep;
    if (!ColdBuildOnce(ctx, graph, &rep, nullptr, report)) return;
    plain.push_back(std::move(rep));
    const std::size_t failed = report.failed();
    traced_reps.push_back(
        TracedColdBuild(ctx, graph, tracer, traced_reps.size() + 1, report));
    if (report.failed() != failed) return;
  }
  for (const TracedRep& m : traced_reps) {
    for (int k = 0; k < 3; ++k) {
      if (m.kappa[k] != plain[0].kappa[k] || m.nodes[k] != plain[0].nodes[k]) {
        report.Mismatch(std::string("traced build differs from the untraced ") +
                        "build for " + kKindNames[k]);
      }
    }
  }
  CheckColdAgainstPeel(ctx, graph, plain, report);

  // Each traced build is compared with the untraced build just before it.
  std::vector<double> overhead, coverage;
  for (std::size_t i = 0; i < traced_reps.size(); ++i) {
    const std::uint64_t req = i + 1;
    overhead.push_back(traced_reps[i].kappa_s / plain[i].kappa_s - 1.0);
    coverage.push_back((tracer.SelfSeconds("clique.", req, req) +
                        tracer.SelfSeconds("local.", req, req) +
                        tracer.SelfSeconds("peel.", req, req)) /
                       (plain[i].kappa_s + plain[i].hierarchy_s));
  }
  report.Metric("bench.trace_overhead.kappa_s", Median(overhead), "ratio");
  report.Metric("bench.layer_coverage", Median(coverage), "ratio");
  for (const auto& [name, figure] : traced_reps[0].figures) {
    std::vector<double> v;
    for (const TracedRep& m : traced_reps) {
      v.push_back(m.figures.at(name).first);
    }
    report.Metric(name, Median(v), figure.second);
  }
  report.Detail("traced_cold_reps", std::to_string(traced_reps.size()));

  ScalingAndPeel(ctx, graph, tracer, plain[0], report);
  WarmReadsAndQueries(ctx, graph, tracer, report);
  InProcessServer(ctx, path, graph, tracer, report);

  // Over HTTP: the closed loop untraced, then traced; then the open loop
  // and the replay of its commits on the oracle session.
  ServerProcess server;
  if (!StartServer(ctx, server, report)) return;
  HttpConn conn(server.port());
  Tracer off(false);
  const Graph served_graph = LoadServed(ctx, conn, report, off);
  const int conns = std::min(4, ctx.nproc);
  const double loop_s = served ? ctx.seconds / 2 : 2.0;
  const ClosedLoopResult untraced =
      RunClosedLoop(ctx, server.port(), served_graph, conns, loop_s, off, 1);
  const auto before = ServerLatencies(conn);
  const ClosedLoopResult traced =
      RunClosedLoop(ctx, server.port(), served_graph, conns, loop_s, tracer, 2);
  const auto after = ServerLatencies(conn);
  auto p50 = [&](const ClosedLoopResult& r) {
    std::vector<double> ms;
    for (const Sample& s : r.samples) {
      report.Attempt();
      if (s.ok) {
        ms.push_back(s.ms);
      } else {
        report.Fail("read");
      }
    }
    return Median(ms);
  };
  report.Metric("bench.trace_overhead.read_p50_ms",
                p50(traced) / p50(untraced) - 1.0, "ratio");
  report.Metric("server.transport_us", TransportUs(traced, before, after),
                "us");
  report.Attempt();
  const HttpReply stats = conn.Post("stats", "{\"graph\":\"g\"}");
  auto sp = JsonValue::Parse(stats.body);
  const JsonValue* counters = sp.ok() ? sp->Find("counters") : nullptr;
  if (stats.status != 200 || counters == nullptr) {
    report.Fail("stats");
  } else {
    const double calls = counters->Find("decompose_calls")->AsDouble();
    const double hits = counters->Find("decompose_cache_hits")->AsDouble();
    report.Metric("core.cache_hit_ratio", calls > 0 ? hits / calls : 0,
                  "ratio");
  }

  const double open_s = churn ? ctx.seconds : 3.0;
  const OpenLoopResult open = RunOpenLoop(
      ctx, server.port(),
      MakeUpdates(served_graph, ctx.seed,
                  static_cast<int>(open_s * kChurnUpdateRate),
                  kChurnBatchEdges, kChurnReinsertEvery),
      open_s, report);
  report.Metric("bench.gen_late_p99_ms", Quantile(open.late_ms, 0.99), "ms");
  ReplayStats replay;
  CheckServedAfterUpdates(ctx, conn, served_graph, open.applied, report, tracer,
                          &replay);
  server.Stop();
  std::vector<double> begin_ms, commit_ms;
  for (double s : tracer.Durations("core.begin_updates")) {
    begin_ms.push_back(s * 1e3);
  }
  for (double s : tracer.Durations("core.commit")) commit_ms.push_back(s * 1e3);
  const Tail tail = TailOf(commit_ms);
  report.Metric("core.begin_updates_ms", Median(begin_ms), "ms");
  report.Metric("core.commit_ms.p50", Median(commit_ms), "ms");
  report.Metric("core.commit_ms.tail", tail.value, "ms");
  report.Detail("core.commit_ms.tail", TailJson(tail));
  report.Metric("core.hierarchy_repairs", replay.hierarchy_repairs, "count");
  report.Metric("core.compactions", replay.compactions, "count");
  report.Metric("local.truss_repair_work",
                static_cast<double>(replay.truss_work), "count");
  // After the commit figures above, so its commits stay out of them.
  InsertProbe(ctx, served_graph, tracer, report);

  // Self time per layer over the whole traced run.
  for (const char* layer :
       {"graph", "clique", "local", "peel", "core", "server"}) {
    report.Metric(std::string("bench.self_s.") + layer,
                  tracer.SelfSeconds(std::string(layer) + "."), "s");
  }
  const double gen = Median(tracer.Durations("graph.generate"));
  const double load = Median(tracer.Durations("graph.load"));
  report.Metric("graph.generate_s", gen, "s");
  report.Metric("graph.load_s", load, "s");
  const std::string trace_path = ctx.workdir + "/trace-" + ctx.workload + "-" +
                                 std::to_string(ctx.seed) + ".json";
  if (tracer.WriteJson(trace_path)) {
    report.Detail("trace_file", JsonString(trace_path));
  }
}

}  // namespace perfbench
