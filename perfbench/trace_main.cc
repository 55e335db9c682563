// perfbench_trace: the benchmark's traced mode.
//
// Replays a workload's generated request stream in process against
// libviewcap and records spans around this file's own calls into each
// layer's public functions; the library itself is not instrumented.
//
//   pass A  the request path exactly as viewcapd runs it: JSON decode,
//           Dispatcher::Handle (one span per method), JSON encode. Its
//           replies go to --replies for the benchmark's checker, and the
//           engine and index counters are read around the timed stream.
//   pass B  the same stream on a fresh workspace, decomposed into the
//           layer calls a request makes: ParseExpr, BuildTableau
//           (Algorithm 2.1.1), CapacityOracle construction, Contains,
//           Dominates, MakeNonredundant, Simplify, Linter::Run and a direct
//           index lookup.
//   probes  timed calls to the engine kernels (Reduced, Key, Intern,
//           HomomorphismExists, RowEmbedsBatch) and the candidate filter
//           (SoaBuildCandidates) on a fresh engine, over the workload's
//           own query and definition templates; and thread-pool fan-out.
//
// Spans are kept in memory and written at the end as Chrome trace-event
// JSON (--trace) plus a per-span-name self-time summary (--summary). The
// per-layer metrics go to stdout as one JSON object.
//
// Usage:
//   perfbench_trace --program=F --warmup=F --stream=F --probe=F
//                   --replies=F --trace=F --summary=F [--threads=N]
//                   [--index=F --index-leaves=N]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "algebra/parser.h"
#include "base/thread_pool.h"
#include "index/index_reader.h"
#include "index/index_writer.h"
#include "lint/linter.h"
#include "service/dispatcher.h"
#include "service/json.h"
#include "service/protocol.h"
#include "tableau/build.h"
#include "tableau/hom_kernel.h"
#include "views/capacity.h"
#include "views/equivalence.h"
#include "views/redundancy.h"
#include "views/simplify.h"

namespace {

using viewcap::JsonValue;
using Clock = std::chrono::steady_clock;

// -- spans ----------------------------------------------------------------

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::int64_t request = -1;
  int lane = 0;
};

class Tracer {
 public:
  int Begin(std::string name, std::int64_t request, int lane) {
    Span span;
    span.name = std::move(name);
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.request = request;
    span.lane = lane;
    spans_.push_back(std::move(span));
    const int index = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(index);
    spans_[index].start_ns = Now();  // Last, so set-up is not timed.
    return index;
  }

  void End(int index) {
    spans_[index].end_ns = Now();
    stack_.pop_back();
  }

  /// Sets the request id of span `index` (known only after decoding).
  void Tag(int index, std::int64_t request) { spans_[index].request = request; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations in ns of every span called `name`.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
    return out;
  }

 private:
  std::int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, std::int64_t request, int lane)
      : tracer_(tracer), index_(tracer.Begin(std::move(name), request, lane)) {}
  ~ScopedSpan() { tracer_.End(index_); }
  int index() const { return index_; }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

constexpr int kLaneRequestPath = 1;
constexpr int kLaneLayers = 2;
constexpr int kLaneProbes = 3;

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// -- inputs ---------------------------------------------------------------

struct Options {
  std::string program, warmup, stream, probe, replies, trace, summary, index;
  std::size_t threads = 1;
  std::size_t index_leaves = 3;
};

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::string text;
  if (path.empty() || !ReadFile(path, &text)) return lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_trace: %s\n", message.c_str());
  std::exit(1);
}

// One decoded request line.
struct Line {
  std::int64_t id = -1;
  std::string method;
  viewcap::Request request;
};

Line Decode(const std::string& text) {
  viewcap::Result<JsonValue> parsed = viewcap::ParseJson(text);
  if (!parsed.ok()) Die("bad request line: " + text);
  Line line;
  if (const JsonValue* id = parsed->Find("id")) {
    line.id = static_cast<std::int64_t>(id->AsNumber(-1));
  }
  line.method = parsed->Find("method")->AsString();
  viewcap::Result<viewcap::Request> request =
      viewcap::RequestFromJson(line.method, parsed->Find("params"));
  if (!request.ok()) Die("bad request: " + request.status().ToString());
  line.request = std::move(*request);
  return line;
}

JsonValue ReplyFor(std::int64_t id, const viewcap::Response& response,
                   viewcap::RequestKind kind) {
  JsonValue reply = JsonValue::Object();
  reply.Set("id", JsonValue::Number(static_cast<double>(id)));
  if (response.ok()) {
    reply.Set("result", viewcap::ResponseToJson(response, kind));
  } else {
    JsonValue err = JsonValue::Object();
    err.Set("code", JsonValue::Str(std::string(
                        viewcap::StatusCodeName(response.status.code()))));
    err.Set("message", JsonValue::Str(response.status.message()));
    reply.Set("error", std::move(err));
  }
  return reply;
}

// -- pass A: the request path ------------------------------------------------

struct PassA {
  double stream_seconds = 0.0;
  std::size_t stream_requests = 0;
  viewcap::EngineStats before, after;
  viewcap::IndexStats index_before, index_after;
};

/// Decode, dispatch and encode one line under spans, as viewcapd would.
std::string ServeTraced(Tracer& tracer, viewcap::Dispatcher& dispatcher,
                        const std::string& text) {
  std::int64_t id = -1;
  std::string method;
  ScopedSpan request_span(tracer, "request", -1, kLaneRequestPath);
  std::optional<viewcap::Request> request;
  {
    ScopedSpan span(tracer, "service.json.decode", -1, kLaneRequestPath);
    viewcap::Result<JsonValue> parsed = viewcap::ParseJson(text);
    if (!parsed.ok()) Die("bad request line: " + text);
    id = static_cast<std::int64_t>(parsed->Find("id")->AsNumber(-1));
    tracer.Tag(span.index(), id);
    tracer.Tag(request_span.index(), id);
    method = parsed->Find("method")->AsString();
    viewcap::Result<viewcap::Request> decoded =
        viewcap::RequestFromJson(method, parsed->Find("params"));
    if (!decoded.ok()) Die("bad request: " + decoded.status().ToString());
    request = std::move(*decoded);
  }
  viewcap::Response response;
  {
    ScopedSpan span(tracer, "service.dispatch." + method, id, kLaneRequestPath);
    response = dispatcher.Handle(*request);
  }
  ScopedSpan span(tracer, "service.json.encode", id, kLaneRequestPath);
  return viewcap::WriteJson(ReplyFor(id, response, request->kind));
}

std::string ServePlain(viewcap::Dispatcher& dispatcher, const std::string& text) {
  Line line = Decode(text);
  viewcap::Response response = dispatcher.Handle(line.request);
  return viewcap::WriteJson(ReplyFor(line.id, response, line.request.kind));
}

// -- pass B: the layers behind each request -----------------------------------

struct LayerState {
  /// Views produced by this pass's own MakeNonredundant and Simplify
  /// calls, by the name the daemon registers them under (X_nr,
  /// X_simplified), so later requests naming them find them.
  std::map<std::string, viewcap::View> derived;
  std::size_t candidates_tried = 0;
  /// Templates collected for the engine probes.
  std::vector<viewcap::Tableau> queries;
  std::vector<std::vector<viewcap::Tableau>> query_defs;
};

void IndexLookup(Tracer& tracer, viewcap::Analyzer& a,
                 viewcap::IndexReader& index, const viewcap::View& view,
                 const viewcap::Tableau& query,
                 const viewcap::SearchLimits& limits, std::int64_t id) {
  viewcap::Engine& engine = a.engine();
  std::vector<viewcap::RelId> handles;
  std::vector<viewcap::TableauId> members;
  const std::vector<viewcap::Tableau> defs = view.QueryTableaux();
  for (std::size_t i = 0; i < defs.size(); ++i) {
    handles.push_back(view.definitions()[i].rel);
    members.push_back(engine.Intern(defs[i]));
  }
  const std::string fingerprint = "perfbench:" + view.name();
  viewcap::MembershipProbe probe;
  probe.handles = &handles;
  probe.member_ids = &members;
  probe.set_fingerprint = &fingerprint;
  probe.query_id = engine.Intern(query);
  probe.extra_leaves = limits.extra_leaves;
  probe.max_leaves = limits.max_leaves;
  probe.max_candidates = limits.max_candidates;
  ScopedSpan span(tracer, "index.lookup", id, kLaneLayers);
  (void)index.LookupMembership(engine, probe);
}

void Layers(Tracer& tracer, viewcap::Workspace& ws, viewcap::IndexReader* index,
            const viewcap::SearchLimits& limits, const Line& line,
            LayerState& state) {
  const viewcap::Request& req = line.request;
  const std::int64_t id = line.id;
  ScopedSpan request_span(tracer, "layers." + line.method, id, kLaneLayers);
  switch (req.kind) {
    case viewcap::RequestKind::kAnswerable:
      ws.WithExclusive([&](viewcap::Analyzer& a) {
        auto view = a.GetView(req.view);
        if (!view.ok()) Die(view.status().ToString());
        viewcap::Result<viewcap::ExprPtr> expr = [&] {
          ScopedSpan span(tracer, "algebra.parse", id, kLaneLayers);
          return viewcap::ParseExpr(a.catalog(), req.query);
        }();
        if (!expr.ok()) Die(expr.status().ToString());
        viewcap::Result<viewcap::Tableau> tableau = [&] {
          ScopedSpan span(tracer, "tableau.build", id, kLaneLayers);
          return viewcap::BuildTableau(a.catalog(), (*view)->universe(), **expr);
        }();
        if (!tableau.ok()) Die(tableau.status().ToString());
        std::optional<viewcap::CapacityOracle> oracle;
        {
          ScopedSpan span(tracer, "views.oracle_setup", id, kLaneLayers);
          oracle.emplace(&a.engine(), **view, limits);
        }
        if (index != nullptr) {
          IndexLookup(tracer, a, *index, **view, *tableau, limits, id);
        }
        viewcap::Result<viewcap::MembershipResult> result = [&] {
          ScopedSpan span(tracer, "views.contains", id, kLaneLayers);
          return oracle->Contains(*tableau);
        }();
        if (!result.ok()) Die(result.status().ToString());
        state.candidates_tried += result->candidates_tried;
        state.queries.push_back(*tableau);
        state.query_defs.push_back((*view)->QueryTableaux());
        return 0;
      });
      break;
    case viewcap::RequestKind::kEquiv:
      ws.WithShared([&](viewcap::Analyzer& a) {
        auto v = a.GetView(req.view);
        auto w = a.GetView(req.other_view);
        if (!v.ok() || !w.ok()) Die("equiv: unknown view");
        for (const auto& [from, to] : {std::pair(*v, *w), std::pair(*w, *v)}) {
          ScopedSpan span(tracer, "views.dominates", id, kLaneLayers);
          if (!viewcap::Dominates(a.engine(), *from, *to, limits).ok()) {
            Die("dominates failed");
          }
        }
        return 0;
      });
      break;
    case viewcap::RequestKind::kLoad: {
      ScopedSpan span(tracer, "core.load", id, kLaneLayers);
      if (!ws.Load(req.program_text).ok()) Die("load failed");
      break;
    }
    case viewcap::RequestKind::kNonredundant:
      ws.WithExclusive([&](viewcap::Analyzer& a) {
        auto view = a.GetView(req.view);
        if (!view.ok()) Die(view.status().ToString());
        viewcap::Result<viewcap::NonredundantViewResult> result = [&] {
          ScopedSpan span(tracer, "views.nonredundant", id, kLaneLayers);
          return viewcap::MakeNonredundant(a.engine(), **view, limits);
        }();
        if (!result.ok()) Die(result.status().ToString());
        state.derived.insert_or_assign(req.view + "_nr", result->view);
        return 0;
      });
      break;
    case viewcap::RequestKind::kSimplify:
      ws.WithExclusive([&](viewcap::Analyzer& a) {
        const viewcap::View* view = nullptr;
        if (auto it = state.derived.find(req.view); it != state.derived.end()) {
          view = &it->second;
        } else {
          auto found = a.GetView(req.view);
          if (!found.ok()) Die(found.status().ToString());
          view = *found;
        }
        viewcap::Result<viewcap::SimplifyOutcome> outcome = [&] {
          ScopedSpan span(tracer, "views.simplify", id, kLaneLayers);
          return viewcap::Simplify(a.engine(), &a.catalog(), *view, limits);
        }();
        if (!outcome.ok()) Die(outcome.status().ToString());
        state.derived.insert_or_assign(req.view + "_simplified", outcome->view);
        return 0;
      });
      break;
    case viewcap::RequestKind::kLint: {
      viewcap::LintOptions options;
      options.limits = limits;
      options.max_semantic_definitions = req.lint.max_semantic_definitions;
      ScopedSpan span(tracer, "lint.run", id, kLaneLayers);
      (void)viewcap::Linter(options).Run(req.program_text);
      break;
    }
    default:
      Die("unexpected method " + line.method);
  }
}

// -- probes: engine kernels and the thread pool ------------------------------

void EngineProbes(Tracer& tracer, viewcap::Workspace& ws,
                  const LayerState& state, double* filter_ns_per_row) {
  ws.WithExclusive([&](viewcap::Analyzer& a) {
    viewcap::Engine engine(&a.catalog());
    viewcap::HomScratch scratch;
    double filter_ns = 0.0;
    std::uint64_t filter_rows = 0;
    const std::size_t n = std::min<std::size_t>(state.queries.size(), 400);
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<viewcap::TableauId> defs;
      for (const viewcap::Tableau& t : state.query_defs[i]) {
        {
          ScopedSpan span(tracer, "engine.reduce", -1, kLaneProbes);
          (void)engine.Reduced(t);
        }
        {
          ScopedSpan span(tracer, "engine.key", -1, kLaneProbes);
          (void)engine.Key(t);
        }
        ScopedSpan span(tracer, "engine.intern", -1, kLaneProbes);
        defs.push_back(engine.Intern(t));
      }
      const viewcap::Tableau& q = state.queries[i];
      {
        ScopedSpan span(tracer, "engine.reduce", -1, kLaneProbes);
        (void)engine.Reduced(q);
      }
      {
        ScopedSpan span(tracer, "engine.key", -1, kLaneProbes);
        (void)engine.Key(q);
      }
      viewcap::TableauId query = 0;
      {
        ScopedSpan span(tracer, "engine.intern", -1, kLaneProbes);
        query = engine.Intern(q);
      }
      for (viewcap::TableauId d : defs) {
        ScopedSpan span(tracer, "engine.hom", -1, kLaneProbes);
        (void)engine.HomomorphismExists(d, query);
      }
      {
        ScopedSpan span(tracer, "engine.row_embed_batch", -1, kLaneProbes);
        (void)engine.RowEmbedsBatch(defs, query);
      }
      for (viewcap::TableauId d : defs) {
        const std::uint64_t rows_before = scratch.filter.counters.rows;
        const auto start = Clock::now();
        (void)viewcap::SoaBuildCandidates(engine.SoaForm(d), engine.SoaForm(query),
                                          viewcap::HomMode::kHomomorphism, scratch);
        filter_ns += static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start)
                .count());
        filter_rows += scratch.filter.counters.rows - rows_before;
      }
    }
    *filter_ns_per_row =
        filter_rows == 0 ? 0.0 : filter_ns / static_cast<double>(filter_rows);

    // Fan-out cost of the shared pool at the daemon's two threads: what a
    // request pays for entering the pool even when the work is trivial.
    viewcap::ThreadPool* pool = engine.SharedPool(2);
    for (int i = 0; i < 400; ++i) {
      ScopedSpan span(tracer, "base.parallel_for", -1, kLaneProbes);
      viewcap::ParallelFor(pool, 2, 2, [](std::size_t) {});
    }
    return 0;
  });
}

// -- output -------------------------------------------------------------------

void WriteTrace(const Tracer& tracer, const std::string& path) {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    JsonValue e = JsonValue::Object();
    e.Set("name", JsonValue::Str(s.name));
    e.Set("ph", JsonValue::Str("X"));
    e.Set("ts", JsonValue::Number(static_cast<double>(s.start_ns) / 1e3));
    e.Set("dur", JsonValue::Number(static_cast<double>(s.end_ns - s.start_ns) / 1e3));
    e.Set("pid", JsonValue::Number(1));
    e.Set("tid", JsonValue::Number(s.lane));
    JsonValue args = JsonValue::Object();
    args.Set("span", JsonValue::Number(static_cast<double>(i)));
    args.Set("parent", JsonValue::Number(s.parent));
    args.Set("request", JsonValue::Number(static_cast<double>(s.request)));
    e.Set("args", std::move(args));
    out << (i == 0 ? "" : ",\n") << viewcap::WriteJson(e);
  }
  out << "]}\n";
}

/// Per span name: count, total and self time (duration minus the time
/// covered by direct children) in microseconds.
void WriteSummary(const Tracer& tracer, const std::string& path) {
  const auto& spans = tracer.spans();
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  struct Row {
    std::size_t count = 0;
    double total_us = 0, self_us = 0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Row& row = rows[spans[i].name];
    const std::int64_t dur = spans[i].end_ns - spans[i].start_ns;
    ++row.count;
    row.total_us += static_cast<double>(dur) / 1e3;
    row.self_us += static_cast<double>(dur - child_ns[i]) / 1e3;
  }
  JsonValue out = JsonValue::Object();
  for (const auto& [name, row] : rows) {
    JsonValue r = JsonValue::Object();
    r.Set("count", JsonValue::Number(static_cast<double>(row.count)));
    r.Set("total_us", JsonValue::Number(row.total_us));
    r.Set("self_us", JsonValue::Number(row.self_us));
    out.Set(name, std::move(r));
  }
  std::ofstream(path) << viewcap::WriteJson(out) << "\n";
}

void AddCache(JsonValue& m, const std::string& name, const viewcap::CacheCounters& a,
              const viewcap::CacheCounters& b) {
  m.Set("engine." + name + ".requests",
        JsonValue::Number(static_cast<double>(b.requests - a.requests)));
  m.Set("engine." + name + ".runs",
        JsonValue::Number(static_cast<double>(b.runs - a.runs)));
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (name == "--program") opt.program = value;
    else if (name == "--warmup") opt.warmup = value;
    else if (name == "--stream") opt.stream = value;
    else if (name == "--probe") opt.probe = value;
    else if (name == "--replies") opt.replies = value;
    else if (name == "--trace") opt.trace = value;
    else if (name == "--summary") opt.summary = value;
    else if (name == "--index") opt.index = value;
    else if (name == "--threads") opt.threads = std::stoul(value);
    else if (name == "--index-leaves") opt.index_leaves = std::stoul(value);
    else Die("unknown flag " + arg);
  }
  std::string catalog;
  if (!ReadFile(opt.program, &catalog)) Die("cannot read " + opt.program);
  const std::vector<std::string> warmup = ReadLines(opt.warmup);
  const std::vector<std::string> stream = ReadLines(opt.stream);
  const std::vector<std::string> probe = ReadLines(opt.probe);

  viewcap::SearchLimits limits;
  limits.threads = opt.threads;
  Tracer tracer;
  double index_build_s = 0.0, index_attach_ms = 0.0;

  // Pass A: the request path.
  viewcap::Workspace ws(limits);
  if (!ws.Load(catalog).ok()) Die("catalog load failed");
  if (!opt.index.empty()) {
    viewcap::Workspace builder(limits);
    if (!builder.Load(catalog).ok()) Die("catalog load failed");
    viewcap::IndexBuildOptions build;
    build.max_leaves = opt.index_leaves;
    build.limits = limits;
    {
      ScopedSpan span(tracer, "index.build", -1, kLaneRequestPath);
      if (!builder.BuildIndex(opt.index, build).ok()) Die("index build failed");
    }
    index_build_s = Median(tracer.Durations("index.build")) / 1e9;
    ScopedSpan span(tracer, "index.attach", -1, kLaneRequestPath);
    if (!ws.AttachIndex(opt.index).ok()) Die("index attach failed");
  }
  if (!opt.index.empty()) {
    index_attach_ms = Median(tracer.Durations("index.attach")) / 1e6;
  }
  viewcap::Dispatcher dispatcher(&ws);
  std::ofstream replies(opt.replies);
  for (const std::string& text : warmup) {
    replies << ServePlain(dispatcher, text) << '\n';
  }
  PassA a;
  a.before = ws.EngineStatsSnapshot();
  if (auto s = ws.IndexStatsSnapshot()) a.index_before = *s;
  const auto start = Clock::now();
  for (const std::string& text : stream) {
    replies << ServeTraced(tracer, dispatcher, text) << '\n';
  }
  a.stream_seconds = std::chrono::duration<double>(Clock::now() - start).count();
  a.stream_requests = stream.size();
  a.after = ws.EngineStatsSnapshot();
  if (auto s = ws.IndexStatsSnapshot()) a.index_after = *s;
  for (const std::string& text : probe) {
    replies << ServeTraced(tracer, dispatcher, text) << '\n';
  }
  replies.close();

  // Pass B: the same stream through the layer functions, on a fresh
  // workspace brought to the same starting state.
  viewcap::Workspace wsb(limits);
  if (!wsb.Load(catalog).ok()) Die("catalog load failed");
  std::unique_ptr<viewcap::IndexReader> index;
  if (!opt.index.empty()) {
    if (!wsb.AttachIndex(opt.index).ok()) Die("index attach failed");
    index = wsb.WithExclusive([&](viewcap::Analyzer& an) {
      auto opened = viewcap::IndexReader::Open(opt.index, &an.catalog());
      if (!opened.ok()) Die(opened.status().ToString());
      return std::move(*opened);
    });
  }
  viewcap::Dispatcher dispatcher_b(&wsb);
  for (const std::string& text : warmup) (void)ServePlain(dispatcher_b, text);
  LayerState state;
  for (const std::string& text : stream) {
    Layers(tracer, wsb, index.get(), limits, Decode(text), state);
  }
  for (const std::string& text : probe) {
    Layers(tracer, wsb, index.get(), limits, Decode(text), state);
  }

  double filter_ns_per_row = 0.0;
  EngineProbes(tracer, wsb, state, &filter_ns_per_row);

  if (!opt.trace.empty()) WriteTrace(tracer, opt.trace);
  if (!opt.summary.empty()) WriteSummary(tracer, opt.summary);

  // Per-layer metrics.
  JsonValue m = JsonValue::Object();
  auto us = [&](const std::string& metric, const std::string& span) {
    m.Set(metric, JsonValue::Number(Median(tracer.Durations(span)) / 1e3));
  };
  auto ms = [&](const std::string& metric, const std::string& span) {
    m.Set(metric, JsonValue::Number(Median(tracer.Durations(span)) / 1e6));
  };
  us("service.json.decode_us", "service.json.decode");
  us("service.json.encode_us", "service.json.encode");
  for (const char* method :
       {"answerable", "equiv", "load", "nonredundant", "simplify", "lint"}) {
    us(std::string("service.dispatch_us.") + method,
       std::string("service.dispatch.") + method);
  }
  us("algebra.parse_us", "algebra.parse");
  us("tableau.build_us", "tableau.build");
  us("views.oracle_setup_us", "views.oracle_setup");
  us("views.contains_us", "views.contains");
  us("views.dominates_us", "views.dominates");
  ms("views.nonredundant_ms", "views.nonredundant");
  ms("views.simplify_ms", "views.simplify");
  ms("lint.run_ms", "lint.run");
  us("core.load_us", "core.load");
  m.Set("index.attach_ms", JsonValue::Number(index_attach_ms));
  us("index.lookup_us", "index.lookup");
  m.Set("index.build_s", JsonValue::Number(index_build_s));
  us("engine.reduce_us", "engine.reduce");
  us("engine.key_us", "engine.key");
  us("engine.intern_us", "engine.intern");
  us("engine.hom_us", "engine.hom");
  us("engine.row_embed_batch_us", "engine.row_embed_batch");
  m.Set("tableau.filter_ns_per_row", JsonValue::Number(filter_ns_per_row));
  us("base.parallel_for_us", "base.parallel_for");

  const viewcap::EngineStats& s0 = a.before;
  const viewcap::EngineStats& s1 = a.after;
  AddCache(m, "reduce", s0.reduce, s1.reduce);
  AddCache(m, "canonical_key", s0.canonical_key, s1.canonical_key);
  AddCache(m, "homomorphism", s0.homomorphism, s1.homomorphism);
  AddCache(m, "row_embedding", s0.row_embedding, s1.row_embedding);
  AddCache(m, "expansion", s0.expansion, s1.expansion);
  AddCache(m, "verdict", s0.verdict, s1.verdict);
  AddCache(m, "dominance", s0.dominance, s1.dominance);
  auto count = [&](const std::string& metric, std::size_t v) {
    m.Set(metric, JsonValue::Number(static_cast<double>(v)));
  };
  count("engine.intern.requests", s1.intern_requests - s0.intern_requests);
  count("engine.intern.hits", s1.intern_hits - s0.intern_hits);
  count("engine.equivalence_confirms",
        s1.equivalence_confirms - s0.equivalence_confirms);
  std::size_t rows = 0, survivors = 0;
  for (std::size_t b = 0; b < s1.filter.size(); ++b) {
    rows += s1.filter[b].rows - s0.filter[b].rows;
    survivors += s1.filter[b].survivors - s0.filter[b].survivors;
  }
  count("filter.rows", rows);
  count("filter.survivors", survivors);
  count("search.candidates_tried", state.candidates_tried);
  count("index.membership_lookups",
        a.index_after.membership_lookups - a.index_before.membership_lookups);
  count("index.membership_hits",
        a.index_after.membership_hits - a.index_before.membership_hits);
  m.Set("trace.requests_per_s",
        JsonValue::Number(a.stream_seconds > 0
                              ? static_cast<double>(a.stream_requests) / a.stream_seconds
                              : 0.0));
  std::cout << viewcap::WriteJson(m) << std::endl;
  return 0;
}
