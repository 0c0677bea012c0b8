#include "workloads.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <tuple>

#include "src/core/densest.h"
#include "src/graph/generators.h"
#include "src/graph/io.h"
#include "src/local/query.h"
#include "src/server/json.h"

namespace perfbench {

using nucleus::JsonValue;

// ---------------------------------------------------------------------------
// Inputs

Graph MakeGraph(const Context& ctx, const std::string& path, Tracer& tracer) {
  Graph generated;
  {
    ScopedSpan s(tracer, "graph.generate");
    generated = nucleus::GenerateRmat(kRmatScale, kRmatEdgeFactor, ctx.seed);
  }
  {
    ScopedSpan s(tracer, "graph.write");
    const auto st = nucleus::TrySaveEdgeListText(generated, path);
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
      std::exit(1);
    }
  }
  nucleus::StatusOr<Graph> loaded = nucleus::Status::Internal("unset");
  {
    ScopedSpan s(tracer, "graph.load");
    loaded = nucleus::TryLoadEdgeListText(path);
  }
  if (!loaded.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", loaded.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(loaded).value();
}

static std::vector<Edge> EdgeList(const Graph& g) {
  std::vector<Edge> out;
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (VertexId v : g.Neighbors(u)) {
      if (u < v) out.emplace_back(u, v);
    }
  }
  return out;
}

std::vector<Batch> MakeUpdates(const Graph& g, std::uint64_t seed, int count,
                               int edges_per_batch, int reinsert_every) {
  Rng rng(seed * 0x5851f42d4c957f2dULL + 17);
  const std::size_t per_batch = static_cast<std::size_t>(edges_per_batch);
  const std::size_t slots = static_cast<std::size_t>(count) * per_batch;
  // A re-inserted edge comes back this many edge events after its removal,
  // so never within the batch that removed it.
  const std::size_t kReinsertLag = 2 * per_batch + 1;

  // Stratified draw: edges ordered by truss number, then triangle support,
  // one uniform pick per equal-size stratum. A commit's cost grows with the
  // truss number of the edges it touches (the hierarchy repair resumes
  // below the highest touched level), so every seed gets the same spread
  // of cheap and expensive commits, while each pick is still a uniform
  // edge of its stratum (hubs appear as often as they really do).
  const std::vector<Edge> edges = EdgeList(g);
  NucleusSession reference{Graph(g)};
  DecomposeOptions peel;
  peel.method = nucleus::Method::kPeeling;
  const auto truss = reference.Decompose(DecompositionKind::kTruss, peel);
  const nucleus::EdgeIndex& ids = reference.Edges();
  std::vector<std::tuple<Degree, std::size_t, std::size_t>> order;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const auto a = g.Neighbors(edges[i].first);
    const auto b = g.Neighbors(edges[i].second);
    std::size_t common = 0;
    for (std::size_t x = 0, y = 0; x < a.size() && y < b.size();) {
      if (a[x] < b[y]) {
        ++x;
      } else if (b[y] < a[x]) {
        ++y;
      } else {
        ++common, ++x, ++y;
      }
    }
    const Degree k =
        truss.ok() ? truss->kappa[ids.EdgeIdOf(edges[i].first, edges[i].second)]
                   : 0;
    order.emplace_back(k, common, i);
  }
  std::sort(order.begin(), order.end());
  // One pick per stratum; the picks of every reinsert_every-th stratum come
  // back, so re-inserted edges also span the strata evenly.
  const std::size_t strata = std::min(slots, edges.size());
  std::vector<std::pair<Edge, bool>> picks;  // edge, comes back
  for (std::size_t j = 0; j < strata; ++j) {
    const std::size_t lo = j * edges.size() / strata;
    const std::size_t hi = (j + 1) * edges.size() / strata;
    picks.emplace_back(edges[std::get<2>(order[lo + rng.Below(hi - lo)])],
                       reinsert_every > 0 &&
                           j % static_cast<std::size_t>(reinsert_every) == 0);
  }
  for (std::size_t i = picks.size(); i > 1; --i) {
    std::swap(picks[i - 1], picks[rng.Below(i)]);
  }

  std::vector<std::pair<Edge, bool>> events;  // edge, is_insert
  for (std::size_t t = 0; events.size() < slots && t < picks.size(); ++t) {
    events.emplace_back(picks[t].first, false);
    if (t >= kReinsertLag && picks[t - kReinsertLag].second) {
      events.emplace_back(picks[t - kReinsertLag].first, true);
    }
  }
  events.resize(std::min(events.size(), slots));
  std::vector<Batch> out;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i % per_batch == 0) out.emplace_back();
    (events[i].second ? out.back().insert : out.back().remove)
        .push_back(events[i].first);
  }
  return out;
}

static std::string PairsJson(const std::vector<Edge>& edges) {
  std::string out = "[";
  for (std::size_t i = 0; i < edges.size(); ++i) {
    out += (i ? ",[" : "[") + std::to_string(edges[i].first) + "," +
           std::to_string(edges[i].second) + "]";
  }
  return out + "]";
}

static std::string UpdateBody(const Batch& b) {
  return "{\"graph\":\"g\",\"insert\":" + PairsJson(b.insert) +
         ",\"remove\":" + PairsJson(b.remove) + "}";
}

DecomposeOptions AndOptions(int threads) {
  DecomposeOptions o;
  o.method = nucleus::Method::kAnd;
  o.threads = threads;
  return o;
}

nucleus::Status ApplyBatch(NucleusSession& s, const Batch& b, Tracer& tracer,
                           std::size_t* truss_work) {
  std::optional<NucleusSession::UpdateBatch> batch;
  {
    ScopedSpan span(tracer, "core.begin_updates");
    batch.emplace(s.BeginUpdates());
  }
  {
    ScopedSpan span(tracer, "local.maintain");
    for (const Edge& e : b.insert) batch->InsertEdge(e.first, e.second);
    for (const Edge& e : b.remove) batch->RemoveEdge(e.first, e.second);
  }
  if (truss_work != nullptr) *truss_work += batch->LastTrussRepairWork();
  ScopedSpan span(tracer, "core.commit");
  return batch->Commit();
}

bool WarmLikeServer(NucleusSession& s, int threads) {
  const DecomposeOptions o = AndOptions(threads);
  return s.Decompose(DecompositionKind::kCore, o).ok() &&
         s.Decompose(DecompositionKind::kTruss, o).ok() &&
         s.Hierarchy(DecompositionKind::kTruss, o).ok();
}

std::string CheckTrussAfterUpdates(const std::vector<Degree>& served,
                                   NucleusSession& replayed, int threads) {
  auto inc = replayed.Decompose(DecompositionKind::kTruss, AndOptions(threads));
  if (!inc.ok()) return "replayed decompose failed";
  if (served != inc->kappa) {
    return "served truss kappa differs from the replayed session (" +
           std::to_string(served.size()) + " vs " +
           std::to_string(inc->kappa.size()) + " ids)";
  }
  NucleusSession fresh(Graph(replayed.graph()));
  DecomposeOptions peel;
  peel.method = nucleus::Method::kPeeling;
  peel.threads = threads;
  auto exact = fresh.Decompose(DecompositionKind::kTruss, peel);
  if (!exact.ok()) return "fresh rebuild failed";
  const nucleus::EdgeIndex& ids = replayed.Edges();
  const nucleus::EdgeIndex& fresh_ids = fresh.Edges();
  std::size_t live = 0;
  for (std::size_t e = 0; e < ids.NumEdges(); ++e) {
    if (!ids.IsLive(static_cast<nucleus::EdgeId>(e))) continue;
    ++live;
    const auto [u, v] = ids.Endpoints(static_cast<nucleus::EdgeId>(e));
    const auto f = fresh_ids.EdgeIdOf(u, v);
    if (f == nucleus::kInvalidEdge || exact->kappa[f] != inc->kappa[e]) {
      return "incremental truss kappa of edge (" + std::to_string(u) + "," +
             std::to_string(v) + ") differs from a fresh rebuild";
    }
  }
  if (live != fresh_ids.NumEdges()) return "live edge count differs";
  return "";
}

// ---------------------------------------------------------------------------
// HTTP helpers

static std::optional<JsonValue> ParseOk(const HttpReply& r) {
  if (r.status != 200) return std::nullopt;
  auto parsed = JsonValue::Parse(r.body);
  if (!parsed.ok()) return std::nullopt;
  return std::move(parsed).value();
}

static std::vector<Degree> KappaOf(const JsonValue& v) {
  std::vector<Degree> out;
  const JsonValue* k = v.Find("kappa");
  if (k == nullptr) return out;
  for (const JsonValue& x : k->AsArray()) {
    out.push_back(static_cast<Degree>(x.AsInt()));
  }
  return out;
}

static double Field(const JsonValue& v, const std::string& key) {
  const JsonValue* f = v.Find(key);
  return f == nullptr ? -1.0 : f->AsDouble();
}

static std::string ThreadsField(int threads) {
  return ",\"threads\":" + std::to_string(threads);
}

static bool PostOk(HttpConn& conn, const std::string& ep,
                   const std::string& body, Report& report,
                   const std::string& what) {
  report.Attempt();
  const HttpReply r = conn.Post(ep, body, kRequestTimeoutMs);
  if (r.status != 200) {
    report.Fail(what + ": HTTP " + std::to_string(r.status) + " " + r.error +
                " " + r.body.substr(0, 200));
    return false;
  }
  return true;
}

// One served set-up: generate and write the graph, load it under `name`,
// then warm (1,2)/(2,3) kappa and the (2,3) hierarchy with cold requests.
static Graph LoadAndWarm(const Context& ctx, HttpConn& conn,
                         const std::string& name, Report& report,
                         Tracer& tracer, double times[3]) {
  const std::string th = ThreadsField(ctx.threads);
  const std::string path = ctx.workdir + "/graph-" + name + ".txt";
  const auto t0 = Clock::now();
  Graph g = MakeGraph(ctx, path, tracer);
  PostOk(conn, "load", "{\"name\":\"" + name + "\",\"path\":\"" + path + "\"}",
         report, "load");
  const auto t1 = Clock::now();
  PostOk(conn, "decompose",
         "{\"graph\":\"" + name + "\",\"kind\":\"core\"" + th + "}", report,
         "warm core decompose");
  PostOk(conn, "decompose",
         "{\"graph\":\"" + name + "\",\"kind\":\"truss\"" + th + "}", report,
         "warm truss decompose");
  const auto t2 = Clock::now();
  PostOk(conn, "hierarchy",
         "{\"graph\":\"" + name + "\",\"kind\":\"truss\"" + th + "}", report,
         "warm truss hierarchy");
  const auto t3 = Clock::now();
  if (times != nullptr) {
    times[0] = SecondsBetween(t0, t3);
    times[1] = SecondsBetween(t1, t2);
    times[2] = SecondsBetween(t2, t3);
  }
  return g;
}

ServedSetupTimer::ServedSetupTimer(const Context& ctx, Report& report)
    : ctx_(ctx) {
  if (StartServer(ctx, server_, report, "setup-server.log")) {
    conn_ = std::make_unique<HttpConn>(server_.port());
  }
}

void ServedSetupTimer::Run(int reps, Report& report) {
  Tracer off(false);
  for (; conn_ != nullptr && reps > 0 && next_ < kSetupReps; --reps, ++next_) {
    const std::string name = "s" + std::to_string(next_);
    double t[3];
    LoadAndWarm(ctx_, *conn_, name, report, off, t);
    times_.setup_s.push_back(t[0]);
    times_.kappa_s.push_back(t[1]);
    times_.hierarchy_s.push_back(t[2]);
    PostOk(*conn_, "unload", "{\"name\":\"" + name + "\"}", report, "unload");
  }
}

Graph LoadServed(const Context& ctx, HttpConn& conn, Report& report,
                 Tracer& tracer) {
  return LoadAndWarm(ctx, conn, "g", report, tracer, nullptr);
}

int PickMix(Rng& rng) {
  double x = rng.Uniform();
  for (int i = 0; i < kMixSize; ++i) {
    if (x < kMix[i].weight) return i;
    x -= kMix[i].weight;
  }
  return kMixSize - 1;
}

std::string MixBody(int entry, const Graph& g, Rng& rng, int threads) {
  const std::string graph = "{\"graph\":\"g\"";
  switch (entry) {
    case 0: return graph + ",\"kind\":\"truss\"" + ThreadsField(threads) + "}";
    case 1: return graph + ",\"kind\":\"truss\",\"include_kappa\":true}";
    case 2: return graph + ",\"kind\":\"truss\"" + ThreadsField(threads) + "}";
    case 3: return graph + "}";
    case 4: return graph + "}";
    default: {
      const VertexId v = static_cast<VertexId>(rng.Below(g.NumVertices()));
      return graph + ",\"kind\":\"core\",\"radius\":1,\"ids\":[" +
             std::to_string(v) + "]}";
    }
  }
}

ClosedLoopResult RunClosedLoop(const Context& ctx, int port, const Graph& g,
                               int conns, double seconds, Tracer& tracer,
                               std::uint64_t salt) {
  std::vector<ClosedLoopResult> per(static_cast<std::size_t>(conns));
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      ClosedLoopResult& out = per[static_cast<std::size_t>(c)];
      out.sampled.resize(kMixSize);
      Rng rng(ctx.seed * 1000003 + salt * 101 + static_cast<std::uint64_t>(c));
      HttpConn conn(port);
      std::uint64_t req =
          salt * 10000000 + static_cast<std::uint64_t>(c) * 1000000;
      while (Clock::now() < end) {
        const int entry = PickMix(rng);
        const std::string body = MixBody(entry, g, rng, ctx.threads);
        const auto t0 = Clock::now();
        HttpReply r;
        {
          ScopedSpan span(tracer, std::string("client.") + kMix[entry].name,
                          ++req);
          r = conn.Post(kMix[entry].endpoint, body, kRequestTimeoutMs);
        }
        Sample s{entry, SecondsSince(t0) * 1e3, r.status == 200};
        out.samples.push_back(s);
        if (s.ok && out.sampled[entry].second.empty()) {
          out.sampled[entry] = {body, r.body};
        } else if (!s.ok && out.errors.size() < 5) {
          out.errors.push_back(std::string(kMix[entry].name) + ": HTTP " +
                               std::to_string(r.status) + " " + r.error);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  ClosedLoopResult all;
  all.elapsed_s = SecondsSince(start);
  all.sampled.resize(kMixSize);
  for (auto& p : per) {
    all.samples.insert(all.samples.end(), p.samples.begin(), p.samples.end());
    for (int i = 0; i < kMixSize; ++i) {
      if (all.sampled[i].second.empty()) all.sampled[i] = p.sampled[i];
    }
    all.errors.insert(all.errors.end(), p.errors.begin(), p.errors.end());
  }
  return all;
}

// Compares one sampled response body per mix entry with the same question
// answered by an in-process session on the same graph.
static void CheckSampledBodies(const Context& ctx, const ClosedLoopResult& loop,
                               const Graph& graph, Report& report) {
  NucleusSession s{Graph(graph)};
  const DecomposeOptions o = AndOptions(ctx.threads);
  auto truss = s.Decompose(DecompositionKind::kTruss, o);
  auto hier = s.Hierarchy(DecompositionKind::kTruss, o);
  if (!truss.ok() || !hier.ok()) {
    report.Mismatch("in-process reference session failed");
    return;
  }
  Degree max_kappa = 0;
  for (Degree k : truss->kappa) max_kappa = std::max(max_kappa, k);
  for (int i = 0; i < kMixSize; ++i) {
    const auto& [req, body] = loop.sampled[i];
    const std::string name = kMix[i].name;
    if (body.empty()) {
      report.Mismatch("no successful " + name + " response to check");
      continue;
    }
    auto parsed = JsonValue::Parse(body);
    if (!parsed.ok()) {
      report.Mismatch(name + " body is not JSON");
      continue;
    }
    const JsonValue& v = *parsed;
    bool ok = true;
    if (name == "decompose" || name == "decompose_kappa") {
      ok = Field(v, "num_r_cliques") ==
               static_cast<double>(truss->kappa.size()) &&
           Field(v, "max_kappa") == static_cast<double>(max_kappa) &&
           v.Find("exact") != nullptr && v.Find("exact")->AsBool();
      if (name == "decompose_kappa") ok = ok && KappaOf(v) == truss->kappa;
    } else if (name == "hierarchy") {
      const nucleus::NucleusHierarchy& h = **hier;
      std::size_t leaves = 0;
      Degree max_k = 0;
      for (const auto& n : h.nodes) {
        leaves += n.children.empty() ? 1 : 0;
        max_k = std::max(max_k, n.k);
      }
      ok = Field(v, "nodes") == static_cast<double>(h.nodes.size()) &&
           Field(v, "roots") == static_cast<double>(h.roots.size()) &&
           Field(v, "leaves") == static_cast<double>(leaves) &&
           Field(v, "depth") == static_cast<double>(h.Depth()) &&
           Field(v, "max_k") == static_cast<double>(max_k);
    } else if (name == "stats") {
      ok = Field(v, "num_vertices") ==
               static_cast<double>(graph.NumVertices()) &&
           Field(v, "num_edges") == static_cast<double>(graph.NumEdges()) &&
           Field(v, "live_edges") == static_cast<double>(graph.NumEdges());
    } else if (name == "densest") {
      const auto d = nucleus::ApproxDensestSubgraph(graph);
      std::vector<VertexId> got;
      if (const JsonValue* vs = v.Find("vertices")) {
        for (const JsonValue& x : vs->AsArray()) {
          got.push_back(static_cast<VertexId>(x.AsInt()));
        }
      }
      ok = got == d.vertices &&
           Field(v, "num_edges") == static_cast<double>(d.num_edges);
    } else {
      auto q = JsonValue::Parse(req);
      const VertexId id = static_cast<VertexId>(
          q.ok() ? q->Find("ids")->AsArray()[0].AsInt() : 0);
      nucleus::QueryOptions qo;
      qo.radius = 1;
      auto est = s.EstimateQueries(DecompositionKind::kCore,
                                   std::vector<nucleus::CliqueId>{id}, qo);
      std::vector<Degree> got;
      if (const JsonValue* es = v.Find("estimates")) {
        for (const JsonValue& x : es->AsArray()) {
          got.push_back(static_cast<Degree>(x.AsInt()));
        }
      }
      ok = est.ok() && got == est->estimates;
    }
    if (!ok) {
      report.Mismatch(name + " response differs from the in-process session");
    }
  }
}

// Sends the update batches one after another on one connection and
// returns the latency (ms) of each 2xx commit; failures go to the report.
static std::vector<double> RunUpdateProbe(HttpConn& conn,
                                          const std::vector<Batch>& batches,
                                          std::vector<Batch>* applied,
                                          Report& report) {
  std::vector<double> ms;
  for (const Batch& b : batches) {
    report.Attempt();
    const auto t0 = Clock::now();
    const HttpReply r = conn.Post("update", UpdateBody(b), kRequestTimeoutMs);
    if (r.status == 200) {
      ms.push_back(SecondsSince(t0) * 1e3);
      applied->push_back(b);
    } else {
      report.Fail("update: HTTP " + std::to_string(r.status) + " " + r.error);
    }
  }
  return ms;
}

void CheckServedAfterUpdates(const Context& ctx, HttpConn& conn,
                             const Graph& graph,
                             const std::vector<Batch>& applied,
                             Report& report, Tracer& tracer,
                             ReplayStats* replay) {
  report.Attempt();
  const HttpReply r = conn.Post(
      "decompose",
      "{\"graph\":\"g\",\"kind\":\"truss\",\"include_kappa\":true}",
      kRequestTimeoutMs);
  auto parsed = ParseOk(r);
  if (!parsed) {
    report.Fail("final truss read: HTTP " + std::to_string(r.status));
    return;
  }
  const std::vector<Degree> served = KappaOf(*parsed);
  NucleusSession oracle{Graph(graph)};
  if (!WarmLikeServer(oracle, ctx.threads)) {
    report.Mismatch("oracle warm-up failed");
    return;
  }
  const nucleus::SessionStats before = oracle.stats();
  for (const Batch& b : applied) {
    const nucleus::Status st = ApplyBatch(
        oracle, b, tracer, replay != nullptr ? &replay->truss_work : nullptr);
    if (!st.ok()) {
      report.Mismatch("oracle commit failed: " + st.ToString());
      return;
    }
  }
  if (replay != nullptr) {
    const nucleus::SessionStats after = oracle.stats();
    replay->hierarchy_repairs =
        after.hierarchy_repairs - before.hierarchy_repairs;
    replay->compactions = after.compactions - before.compactions;
  }
  const std::string why = CheckTrussAfterUpdates(served, oracle, ctx.threads);
  if (!why.empty()) report.Mismatch(why);
}

// ---------------------------------------------------------------------------
// Open loop (churn)

// Open loop at fixed rates: one update sender and ChurnReadSenders(ctx) read
// senders, each on its own connection. Every request has a due time on a
// fixed schedule; latency runs from the due time, so a sender held up by
// a slow response charges the wait to the requests behind it. Lateness is
// how far past its due time each request was actually sent.
OpenLoopResult RunOpenLoop(const Context& ctx, int port,
                           const std::vector<Batch>& batches, double seconds,
                           Report& report) {
  OpenLoopResult out;
  std::mutex mu;
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto hard_stop =
      start + std::chrono::seconds(static_cast<int>(seconds) + 60);
  auto at = [&](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };
  const int readers = ChurnReadSenders(ctx);
  const int n_reads = static_cast<int>(seconds * kChurnReadRate / readers);
  auto read_end = start;  // last read completion, guarded by mu
  std::vector<std::thread> senders;
  senders.emplace_back([&] {
    HttpConn conn(port);
    for (std::size_t i = 0; i < batches.size(); ++i) {
      const auto due = at(static_cast<double>(i) / kChurnUpdateRate);
      std::this_thread::sleep_until(due);
      const auto sent = Clock::now();
      HttpReply r;
      if (sent < hard_stop) {
        r = conn.Post("update", UpdateBody(batches[i]), kRequestTimeoutMs);
      }
      const double ms = SecondsBetween(due, Clock::now()) * 1e3;
      std::lock_guard<std::mutex> lk(mu);
      report.Attempt();
      out.late_ms.push_back(SecondsBetween(due, sent) * 1e3);
      if (r.status == 200) {
        out.update_ms.push_back(ms);
        out.applied.push_back(batches[i]);
      } else {
        report.Fail("update: HTTP " + std::to_string(r.status) + " " + r.error);
      }
    }
  });
  const double read_rate = kChurnReadRate / readers;
  for (int j = 0; j < readers; ++j) {
    senders.emplace_back([&, j] {
      HttpConn conn(port);
      Rng rng(ctx.seed * 7919 + static_cast<std::uint64_t>(j));
      const double offset =
          static_cast<double>(j + 1) / (readers + 1);
      for (int i = 0; i < n_reads; ++i) {
        const auto due = at((i + offset) / read_rate);
        std::this_thread::sleep_until(due);
        const auto sent = Clock::now();
        const bool hier = rng.Below(kChurnHierarchyEvery) == 0;
        HttpReply r;
        if (sent < hard_stop) {
          r = conn.Post(hier ? "hierarchy" : "decompose",
                        "{\"graph\":\"g\",\"kind\":\"truss\"" +
                            ThreadsField(ctx.threads) +
                            (hier ? "}" : ",\"include_kappa\":true}"),
                        kRequestTimeoutMs);
        }
        const auto done = Clock::now();
        const double ms = SecondsBetween(due, done) * 1e3;
        std::lock_guard<std::mutex> lk(mu);
        report.Attempt();
        read_end = std::max(read_end, done);
        out.late_ms.push_back(SecondsBetween(due, sent) * 1e3);
        if (r.status == 200) {
          out.read_ms.push_back(ms);
          ++out.reads_ok;
        } else {
          report.Fail(std::string(hier ? "hierarchy" : "decompose") +
                      ": HTTP " + std::to_string(r.status) + " " + r.error);
        }
      }
    });
  }
  for (auto& t : senders) t.join();
  out.read_elapsed_s = SecondsBetween(start, read_end);
  return out;
}

// ---------------------------------------------------------------------------
// Host and build header

std::string HostHeader(const Context& ctx) {
  std::string model = "unknown";
  std::string flags;
  std::ifstream cpu("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpu, line)) {
    if (model == "unknown" && line.rfind("model name", 0) == 0) {
      model = line.substr(line.find(':') + 2);
    } else if (flags.empty() && line.rfind("flags", 0) == 0) {
      std::istringstream in(line.substr(line.find(':') + 1));
      std::string f;
      while (in >> f) {
        if (f.rfind("sse4", 0) == 0 || f.rfind("avx", 0) == 0 ||
            f == "popcnt" || f == "bmi2" || f == "neon" || f == "asimd") {
          flags += (flags.empty() ? "" : " ") + f;
        }
      }
    }
  }
#ifdef __clang__
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return std::string("{") + "\"nproc\":" + std::to_string(ctx.nproc) +
         ",\"cpu_model\":" + JsonString(model) +
         ",\"simd_flags\":" + JsonString(flags) +
         ",\"compiler\":" + JsonString(compiler) +
         ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
         ",\"source_digest\":" + JsonString(ctx.source_digest) +
         ",\"git_sha\":" + JsonString(ctx.git_sha) +
         ",\"threads\":" + std::to_string(ctx.threads) +
         ",\"workload\":" + JsonString(ctx.workload) +
         ",\"seed\":" + std::to_string(ctx.seed) +
         ",\"seconds\":" + JsonNumber(ctx.seconds) +
         ",\"trace\":" + (ctx.trace ? "true" : "false") +
         ",\"graph\":{\"model\":\"rmat\",\"scale\":" +
         std::to_string(kRmatScale) +
         ",\"edge_factor\":" + std::to_string(kRmatEdgeFactor) + "}}";
}

std::string HostProbeJson() {
  // A chain of dependent multiplies stays in registers: core speed.
  auto alu = [] {
    std::uint64_t x = 1;
    for (int i = 0; i < 20000000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    }
    return x;
  };
  // A chain of dependent loads over 64 MiB misses the caches: memory
  // latency, which other tenants' memory traffic moves. The chain is one
  // cycle through the whole table (Sattolo's shuffle). The table is freed
  // on return, so it never counts in a peak RSS measured later.
  std::vector<std::uint32_t> next(std::size_t{1} << 24);
  for (std::uint32_t i = 0; i < next.size(); ++i) next[i] = i;
  Rng rng(1);
  for (std::size_t i = next.size() - 1; i > 0; --i) {
    std::swap(next[i], next[rng.Below(i)]);
  }
  auto memory = [&] {
    std::uint64_t at = 0;
    for (int i = 0; i < 200000; ++i) at = next[at];
    return at;
  };
  auto median_ms = [](auto&& fn) {
    std::vector<double> ms;
    for (int rep = 0; rep < 5; ++rep) {
      const auto t0 = Clock::now();
      volatile std::uint64_t sink = fn();  // keeps the loop from folding
      (void)sink;
      ms.push_back(SecondsSince(t0) * 1e3);
    }
    return Median(ms);
  };
  return "{\"alu_ms\":" + JsonNumber(median_ms(alu)) +
         ",\"memory_ms\":" + JsonNumber(median_ms(memory)) + "}";
}

std::pair<double, double> HostCpuJiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double steal = 0, total = 0, v = 0;
  // user nice system idle iowait irq softirq steal (guest time is counted
  // in user already)
  for (int i = 0; i < 8 && stat >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

std::string TailJson(const Tail& t) {
  return "{\"percentile\":" + JsonNumber(t.percentile) +
         ",\"samples\":" + std::to_string(t.samples) +
         ",\"beyond\":" + std::to_string(t.beyond) +
         ",\"value\":" + JsonNumber(t.value) + "}";
}

// update_tail_ms rests on at least 30 samples beyond its percentile:
// commit times spread 10x from edge to edge, and a percentile with ten
// samples beyond it moved by a third from run to run.
static void ReportUpdates(Report& report, const std::vector<double>& ms) {
  const Tail tail = TailOf(ms, 30.0);
  report.Metric("update_p50_ms", Median(ms), "ms");
  report.Metric("update_tail_ms", tail.value, "ms");
  report.Detail("update_tail", TailJson(tail));
}

// Reads are measured in windows spread over the run (the cold builds, the
// read segments, the open loop's segments); p50 and p99 are taken over all
// of them together, so the p99 rests on every slow read of the run.
static void ReportReads(Report& report,
                        const std::vector<std::vector<double>>& windows) {
  std::vector<double> all;
  for (const std::vector<double>& w : windows) {
    all.insert(all.end(), w.begin(), w.end());
  }
  report.Metric("read_p50_ms", Median(all), "ms");
  report.Metric("read_p99_ms", Quantile(all, 0.99), "ms");
  report.Detail("read_windows", "{\"windows\":" +
                                    std::to_string(windows.size()) +
                                    ",\"samples\":" +
                                    std::to_string(all.size()) + "}");
}

void ReportOkShare(Report& report) {
  const double attempted =
      static_cast<double>(std::max<std::uint64_t>(report.attempted(), 1));
  report.Metric("ok_share",
                (attempted - static_cast<double>(report.failed())) / attempted,
                "ratio");
}

// ---------------------------------------------------------------------------
// cold_build

bool ColdBuildOnce(const Context& ctx, const Graph& graph, ColdRep* rep,
                   std::vector<double>* reads, Report& report, int build) {
  Graph copy(graph);
  const DecomposeOptions o = AndOptions(ctx.threads);
  const auto t0 = Clock::now();
  NucleusSession s(std::move(copy));
  for (int k = 0; k < 3; ++k) {
    report.Attempt();
    auto r = s.Decompose(kKinds[k], o);
    if (!r.ok() || !r->exact) {
      report.Fail(std::string("decompose ") + kKindNames[k]);
      return false;
    }
    rep->kappa[k] = std::move(r->kappa);
  }
  const auto t1 = Clock::now();
  for (int k = 0; k < 3; ++k) {
    report.Attempt();
    auto h = s.Hierarchy(kKinds[k], o);
    if (!h.ok()) {
      report.Fail(std::string("hierarchy ") + kKindNames[k]);
      return false;
    }
    rep->nodes[k] = (*h)->nodes.size();
  }
  const auto t2 = Clock::now();
  rep->kappa_s = SecondsBetween(t0, t1);
  rep->hierarchy_s = SecondsBetween(t1, t2);
  if (reads != nullptr) {
    // Warm reads on the built session: the served_reads mix, made as the
    // library calls behind each endpoint, less the radius-1 queries. A
    // query's cost follows the degree of the vertex it asks about, so the
    // twenty of them a build made the read rate a draw of which hubs came
    // up; local.query_ms times queries in the traced run.
    Rng rng(ctx.seed * 7 + static_cast<std::uint64_t>(build) * 1000003);
    while (reads->size() < static_cast<std::size_t>(kColdReadsPerBuild)) {
      const int entry = PickMix(rng);
      if (std::string(kMix[entry].name) == "query") continue;
      report.Attempt();
      bool ok = true;
      const auto r0 = Clock::now();
      switch (entry) {
        case 0:
        case 1:
          ok = s.Decompose(DecompositionKind::kTruss, o).ok();
          break;
        case 2:
          ok = s.Hierarchy(DecompositionKind::kTruss, o).ok();
          break;
        case 3:
          ok = s.Stats().num_edges == graph.NumEdges();
          break;
        default:
          ok = !nucleus::ApproxDensestSubgraph(s.graph()).vertices.empty();
      }
      reads->push_back(SecondsSince(r0) * 1e3);
      if (!ok) report.Fail("warm read");
    }
  }
  return true;
}

void CheckColdAgainstPeel(const Context& ctx, const Graph& graph,
                          const std::vector<ColdRep>& reps, Report& report) {
  NucleusSession ref{Graph(graph)};
  DecomposeOptions peel;
  peel.method = nucleus::Method::kPeeling;
  peel.threads = ctx.threads;
  for (int k = 0; k < 3; ++k) {
    auto r = ref.Decompose(kKinds[k], peel);
    if (!r.ok()) {
      report.Mismatch(std::string("peel reference failed for ") +
                      kKindNames[k]);
      continue;
    }
    auto h = ref.HierarchyFor(kKinds[k], r->kappa);
    for (std::size_t i = 0; i < reps.size(); ++i) {
      if (reps[i].kappa[k] != r->kappa) {
        report.Mismatch(std::string("AND kappa differs from peel for ") +
                        kKindNames[k] + " in rep " + std::to_string(i));
      }
      if (!h.ok() || reps[i].nodes[k] != h->nodes.size()) {
        report.Mismatch(std::string("hierarchy node count differs for ") +
                        kKindNames[k] + " in rep " + std::to_string(i));
      }
    }
  }
}

// Peak resident set of a process that loads nothing but the graph and runs
// one cold build: a forked child, so the figure is the session's own and not
// that of the allocations earlier or later builds leave behind.
static double ColdBuildPeakRssMb(const Context& ctx, const Graph& graph,
                                 Report& report) {
  int fds[2];
  if (::pipe(fds) != 0) return 0;
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::close(fds[0]);
    Report child_report;
    ColdRep rep;
    double mb = ColdBuildOnce(ctx, graph, &rep, nullptr, child_report)
                    ? PeakRssMb("/proc/self/status")
                    : 0.0;
    ssize_t ignored = ::write(fds[1], &mb, sizeof(mb));
    (void)ignored;
    ::_exit(0);
  }
  ::close(fds[1]);
  double mb = 0;
  report.Attempt();
  if (pid < 0 || ::read(fds[0], &mb, sizeof(mb)) != sizeof(mb) || mb <= 0) {
    report.Fail("peak-RSS build failed");
  }
  ::close(fds[0]);
  if (pid > 0) ::waitpid(pid, nullptr, 0);
  return mb;
}

// In-process update probe: a session warmed like the served graph commits
// the seeded removal batches a chunk at a time, so the commits are spread
// over the run like the cold builds they alternate with.
class UpdateProbe {
 public:
  UpdateProbe(const Context& ctx, const Graph& graph, Report& report)
      : ctx_(ctx),
        session_(Graph(graph)),
        batches_(MakeUpdates(graph, ctx.seed, kColdProbeUpdates, 1, 0)) {
    if (!WarmLikeServer(session_, ctx.threads)) {
      report.Fail("probe warm-up");
      next_ = batches_.size();
    }
  }

  // Commits up to `n` more batches.
  void Run(std::size_t n, Report& report) {
    Tracer off(false);
    for (; n > 0 && next_ < batches_.size(); --n, ++next_) {
      report.Attempt();
      const auto t0 = Clock::now();
      const nucleus::Status st =
          ApplyBatch(session_, batches_[next_], off, nullptr);
      if (st.ok()) {
        ms_.push_back(SecondsSince(t0) * 1e3);
      } else {
        report.Fail("commit: " + st.ToString());
      }
    }
  }

  // Checks the incremental (2,3) kappa after the commits made so far
  // against a fresh rebuild of the final graph.
  void Check(Report& report) {
    auto kappa = session_.Decompose(DecompositionKind::kTruss,
                                    AndOptions(ctx_.threads));
    const std::string why =
        kappa.ok()
            ? CheckTrussAfterUpdates(kappa->kappa, session_, ctx_.threads)
            : "probe read failed";
    if (!why.empty()) report.Mismatch(why);
  }

  const std::vector<double>& ms() const { return ms_; }

 private:
  const Context& ctx_;
  NucleusSession session_;
  const std::vector<Batch> batches_;
  std::size_t next_ = 0;
  std::vector<double> ms_;
};

void ColdBuild(const Context& ctx, Report& report) {
  Tracer off(false);
  // Set-up repetitions: one before the cold builds, one after each, the
  // rest at the end.
  std::vector<double> setup;
  Graph graph;
  auto set_up = [&] {
    const auto t0 = Clock::now();
    graph = MakeGraph(ctx, ctx.workdir + "/graph.txt", off);
    setup.push_back(SecondsSince(t0));
  };
  set_up();
  report.Metric("peak_rss_mb", ColdBuildPeakRssMb(ctx, graph, report), "MB");
  std::vector<ColdRep> reps;
  std::vector<std::vector<double>> reads;  // one window per build
  std::vector<double> read_rps;
  UpdateProbe probe(ctx, graph, report);
  const auto start = Clock::now();
  while (reps.size() < 2 || SecondsSince(start) < ctx.seconds) {
    ColdRep rep;
    if (!ColdBuildOnce(ctx, graph, &rep, &reads.emplace_back(), report,
                       static_cast<int>(reps.size()))) {
      break;
    }
    double burst_s = 0;
    for (double ms : reads.back()) burst_s += ms * 1e-3;
    read_rps.push_back(static_cast<double>(reads.back().size()) / burst_s);
    reps.push_back(std::move(rep));
    probe.Run(kColdProbeChunk, report);
    if (setup.size() < static_cast<std::size_t>(kSetupReps)) set_up();
    if (SecondsSince(start) > ctx.seconds * 3) break;
  }
  probe.Check(report);
  while (setup.size() < static_cast<std::size_t>(kSetupReps)) set_up();
  std::vector<double> kappa_s, hierarchy_s;
  for (const ColdRep& r : reps) {
    kappa_s.push_back(r.kappa_s);
    hierarchy_s.push_back(r.hierarchy_s);
  }
  CheckColdAgainstPeel(ctx, graph, reps, report);

  report.Metric("setup_s", Median(setup), "s");
  report.Metric("kappa_s", Median(kappa_s), "s");
  report.Metric("hierarchy_s", Median(hierarchy_s), "s");
  ReportReads(report, reads);
  // One caller issuing warm reads back to back: reads per second of each
  // build's burst, median over the builds.
  report.Metric("read_rps", Median(read_rps), "1/s");
  ReportUpdates(report, probe.ms());
  std::string per_rep = "[";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    per_rep += (i ? ",[" : "[") + JsonNumber(reps[i].kappa_s) + "," +
               JsonNumber(reps[i].hierarchy_s) + "]";
  }
  report.Detail("cold_reps_kappa_hierarchy_s", per_rep + "]");
  report.Detail("reads", "\"served_reads mix as in-process calls\"");
}

// ---------------------------------------------------------------------------
// served_reads and churn

static void ReportServedSetup(Report& report, const ServedSetup& setup) {
  report.Metric("setup_s", Median(setup.setup_s), "s");
  report.Metric("kappa_s", Median(setup.kappa_s), "s");
  report.Metric("hierarchy_s", Median(setup.hierarchy_s), "s");
}

bool StartServer(const Context& ctx, ServerProcess& server, Report& report,
                 const std::string& log_name) {
  std::string error;
  if (!server.Start(ctx.server, ctx.threads, ctx.workdir + "/" + log_name,
                    &error)) {
    report.Attempt();
    report.Fail(error);
    return false;
  }
  return true;
}

void ServedReads(const Context& ctx, Report& report) {
  Tracer off(false);
  ServedSetupTimer setup(ctx, report);
  ServerProcess server;
  if (!StartServer(ctx, server, report)) return;
  HttpConn conn(server.port());
  const Graph graph = LoadServed(ctx, conn, report, off);
  // Peak RSS of the loaded, warmed server: its data structures. The run-end
  // figure also counts whichever malloc arenas concurrent requests touched,
  // which varies from run to run; it goes to the details.
  const double warm_rss = server.PeakRssMb();
  // The read phase runs in segments with a chunk of the update probe and
  // of the set-up repetitions after each, so all three are spread over the
  // run. Commits keep the caches warm (kappa is re-seeded, the hierarchy
  // repaired in place), so every read is still answered from warm state.
  const int conns = std::min(4, ctx.nproc);
  const std::vector<Batch> batches =
      MakeUpdates(graph, ctx.seed, kProbeUpdates, 1, 0);
  const std::size_t chunk =
      (batches.size() + kReadSegments - 1) / kReadSegments;
  ClosedLoopResult first;
  std::vector<double> updates;
  std::vector<Batch> applied;
  std::vector<std::vector<double>> ms;  // one window per segment
  std::vector<double> rps;
  for (int seg = 0; seg < kReadSegments; ++seg) {
    ClosedLoopResult loop = RunClosedLoop(ctx, server.port(), graph, conns,
                                          ctx.seconds / kReadSegments, off,
                                          static_cast<std::uint64_t>(seg));
    std::vector<double>& window = ms.emplace_back();
    for (const Sample& s : loop.samples) {
      report.Attempt();
      if (s.ok) {
        window.push_back(s.ms);
      } else {
        report.Fail("read");
      }
    }
    rps.push_back(static_cast<double>(window.size()) / loop.elapsed_s);
    for (const std::string& e : loop.errors) {
      report.Detail("read_error", JsonString(e));
    }
    if (seg == 0) first = std::move(loop);
    const std::size_t lo =
        std::min(batches.size(), chunk * static_cast<std::size_t>(seg));
    const std::size_t hi = std::min(batches.size(), lo + chunk);
    const std::vector<double> seg_ms = RunUpdateProbe(
        conn, std::vector<Batch>(batches.begin() + lo, batches.begin() + hi),
        &applied, report);
    updates.insert(updates.end(), seg_ms.begin(), seg_ms.end());
    setup.Run(kSetupReps / kReadSegments, report);
  }
  setup.Run(kSetupReps, report);
  report.Metric("peak_rss_mb", warm_rss, "MB");
  report.Detail("server_peak_rss_mb_at_end", JsonNumber(server.PeakRssMb()));
  // Bodies sampled before the first commit answer for the loaded graph.
  CheckSampledBodies(ctx, first, graph, report);
  CheckServedAfterUpdates(ctx, conn, graph, applied, report, off, nullptr);
  server.Stop();

  ReportServedSetup(report, setup.times());
  ReportReads(report, ms);
  report.Metric("read_rps", Median(rps), "1/s");
  ReportUpdates(report, updates);
  report.Detail("loop", "{\"type\":\"closed\",\"connections\":" +
                            std::to_string(conns) + "}");
}

void Churn(const Context& ctx, Report& report) {
  Tracer off(false);
  // The open loop runs in kReadSegments segments with a share of the set-up
  // repetitions before, between and after them, so both span the run.
  constexpr int kSetupShare = kSetupReps / (kReadSegments + 1);
  ServedSetupTimer setup(ctx, report);
  setup.Run(kSetupShare, report);
  ServerProcess server;
  if (!StartServer(ctx, server, report)) return;
  HttpConn conn(server.port());
  const Graph graph = LoadServed(ctx, conn, report, off);
  const double warm_rss = server.PeakRssMb();
  const double segment_s = ctx.seconds / kReadSegments;
  const std::size_t per_segment =
      static_cast<std::size_t>(segment_s * kChurnUpdateRate);
  const std::vector<Batch> batches =
      MakeUpdates(graph, ctx.seed,
                  static_cast<int>(per_segment) * kReadSegments,
                  kChurnBatchEdges, kChurnReinsertEvery);
  std::vector<std::vector<double>> reads;  // one window per segment
  std::vector<double> updates, late_ms;
  std::vector<Batch> applied;
  std::size_t reads_ok = 0;
  double read_s = 0;
  for (int seg = 0; seg < kReadSegments; ++seg) {
    const std::size_t lo =
        std::min(batches.size(), per_segment * static_cast<std::size_t>(seg));
    const std::size_t hi = std::min(batches.size(), lo + per_segment);
    OpenLoopResult loop = RunOpenLoop(
        ctx, server.port(),
        std::vector<Batch>(batches.begin() + lo, batches.begin() + hi),
        segment_s, report);
    reads.push_back(std::move(loop.read_ms));
    updates.insert(updates.end(), loop.update_ms.begin(), loop.update_ms.end());
    late_ms.insert(late_ms.end(), loop.late_ms.begin(), loop.late_ms.end());
    applied.insert(applied.end(), loop.applied.begin(), loop.applied.end());
    reads_ok += loop.reads_ok;
    read_s += loop.read_elapsed_s;
    setup.Run(kSetupShare, report);
  }
  setup.Run(kSetupReps, report);
  report.Metric("peak_rss_mb", warm_rss, "MB");
  report.Detail("server_peak_rss_mb_at_end", JsonNumber(server.PeakRssMb()));
  CheckServedAfterUpdates(ctx, conn, graph, applied, report, off, nullptr);
  server.Stop();

  ReportServedSetup(report, setup.times());
  ReportReads(report, reads);
  report.Metric("read_rps", static_cast<double>(reads_ok) / read_s, "1/s");
  ReportUpdates(report, updates);
  report.Detail("loop", "{\"type\":\"open\",\"update_rate\":" +
                            JsonNumber(kChurnUpdateRate) + ",\"read_rate\":" +
                            JsonNumber(kChurnReadRate) + ",\"senders\":" +
                            std::to_string(ChurnReadSenders(ctx) + 1) +
                            ",\"segments\":" + std::to_string(kReadSegments) +
                            "}");
  report.Detail("gen_late_p99_ms", JsonNumber(Quantile(late_ms, 0.99)));
}

}  // namespace perfbench
