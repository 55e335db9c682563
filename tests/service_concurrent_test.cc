// Concurrency tests for the service core: many sessions multiplexed onto
// one Workspace/Dispatcher, at per-request thread counts {1, 2, 8}, must
// produce bit-identical verdicts regardless of interleaving — the PR 5
// determinism guarantee lifted to the daemon. Runs under ci-tsan (the
// preset's filter matches "Service").
#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/dispatcher.h"
#include "service/protocol.h"
#include "tests/test_util.h"

namespace viewcap {
namespace {

constexpr const char* kProgram = R"(
schema { r(A, B, C); }
view V { v := pi{A,B}(r) * pi{B,C}(r); }
view W {
  w1 := pi{A,B}(r);
  w2 := pi{B,C}(r);
}
view Narrow { n := pi{A,B}(r); }
)";

/// The mixed read-only workload each simulated session runs. Every
/// request is answerable deterministically, so the expected transcript
/// is a pure function of the request list.
std::vector<Request> SessionWorkload(std::size_t threads) {
  std::vector<Request> requests;
  {
    Request r;
    r.kind = RequestKind::kEquiv;
    r.view = "V";
    r.other_view = "W";
    r.threads = threads;
    requests.push_back(r);
    r.view = "Narrow";
    requests.push_back(r);  // Not equivalent: exit 3.
  }
  {
    Request r;
    r.kind = RequestKind::kAnswerable;
    r.view = "W";
    r.query = "pi{A,C}(r)";
    r.threads = threads;
    requests.push_back(r);
    r.query = "pi{A,B}(r)";
    requests.push_back(r);
  }
  {
    Request r;
    r.kind = RequestKind::kLattice;
    r.threads = threads;
    requests.push_back(r);
  }
  {
    Request r;
    r.kind = RequestKind::kList;
    requests.push_back(r);
  }
  return requests;
}

std::vector<Response> RunWorkload(Dispatcher& dispatcher,
                                  const std::vector<Request>& workload) {
  std::vector<Response> responses;
  responses.reserve(workload.size());
  for (const Request& request : workload) {
    responses.push_back(dispatcher.Handle(request));
  }
  return responses;
}

TEST(ServiceConcurrentTest, ParallelSessionsMatchSerialBaseline) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    // Serial baseline on a fresh workspace.
    Workspace baseline_ws;
    VIEWCAP_ASSERT_OK(baseline_ws.Load(kProgram));
    Dispatcher baseline_dispatcher(&baseline_ws);
    const std::vector<Request> workload = SessionWorkload(threads);
    const std::vector<Response> baseline =
        RunWorkload(baseline_dispatcher, workload);

    // Eight concurrent sessions against one shared warm workspace.
    Workspace shared_ws;
    VIEWCAP_ASSERT_OK(shared_ws.Load(kProgram));
    Dispatcher shared_dispatcher(&shared_ws);
    constexpr std::size_t kSessions = 8;
    std::vector<std::vector<Response>> transcripts(kSessions);
    {
      std::vector<std::thread> sessions;
      sessions.reserve(kSessions);
      for (std::size_t s = 0; s < kSessions; ++s) {
        sessions.emplace_back([&, s] {
          transcripts[s] = RunWorkload(shared_dispatcher, workload);
        });
      }
      for (std::thread& session : sessions) session.join();
    }

    for (std::size_t s = 0; s < kSessions; ++s) {
      ASSERT_EQ(transcripts[s].size(), baseline.size());
      for (std::size_t i = 0; i < baseline.size(); ++i) {
        EXPECT_EQ(transcripts[s][i].output, baseline[i].output)
            << "threads=" << threads << " session=" << s << " request=" << i;
        EXPECT_EQ(transcripts[s][i].exit_code, baseline[i].exit_code);
        EXPECT_EQ(transcripts[s][i].verdict, baseline[i].verdict);
        EXPECT_EQ(transcripts[s][i].witness, baseline[i].witness);
      }
    }
  }
}

TEST(ServiceConcurrentTest, ConcurrentLoadsAndReadsStaySafe) {
  Workspace workspace;
  VIEWCAP_ASSERT_OK(workspace.Load(kProgram));
  Dispatcher dispatcher(&workspace);

  // Readers hammer equivalence while writers grow the workspace with
  // fresh view programs; the reader verdicts must be untouched by the
  // interleaved catalog growth.
  std::vector<std::thread> threads;
  std::vector<int> reader_failures(4, 0);
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&dispatcher, &reader_failures, t] {
      for (int i = 0; i < 8; ++i) {
        Request eq;
        eq.kind = RequestKind::kEquiv;
        eq.view = "V";
        eq.other_view = "W";
        eq.threads = 2;
        Response r = dispatcher.Handle(eq);
        if (!r.verdict.has_value() || !*r.verdict || r.exit_code != 0) {
          ++reader_failures[t];
        }
      }
    });
  }
  for (std::size_t t = 0; t < 2; ++t) {
    threads.emplace_back([&workspace, t] {
      for (int i = 0; i < 4; ++i) {
        const std::string name =
            "Extra_" + std::to_string(t) + "_" + std::to_string(i);
        const std::string program =
            "view " + name + " { x" + std::to_string(t) +
            std::to_string(i) + " := pi{A,B}(r); }";
        VIEWCAP_EXPECT_OK(workspace.Load(program));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int failures : reader_failures) EXPECT_EQ(failures, 0);

  Request list;
  list.kind = RequestKind::kList;
  const std::string views = dispatcher.Handle(list).output;
  EXPECT_NE(views.find("Extra_0_3"), std::string::npos);
  EXPECT_NE(views.find("Extra_1_3"), std::string::npos);
}

TEST(ServiceConcurrentTest, AnswerMemoHitsRaceLoads) {
  Workspace workspace;
  VIEWCAP_ASSERT_OK(workspace.Load(kProgram));
  Dispatcher dispatcher(&workspace);
  const std::vector<Request> workload = SessionWorkload(2);
  // The first pass fills the memo; the readers below repeat it, so their
  // answers come from the memo while loads clear it under them.
  const std::vector<Response> baseline = RunWorkload(dispatcher, workload);

  std::vector<std::thread> threads;
  std::vector<int> reader_failures(4, 0);
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 8; ++i) {
        const std::vector<Response> again = RunWorkload(dispatcher, workload);
        for (std::size_t r = 0; r < baseline.size(); ++r) {
          // list and lattice grow with the loads; the answers must not.
          if (workload[r].kind == RequestKind::kList ||
              workload[r].kind == RequestKind::kLattice) {
            continue;
          }
          if (again[r].output != baseline[r].output ||
              again[r].verdict != baseline[r].verdict ||
              again[r].witness != baseline[r].witness ||
              again[r].exit_code != baseline[r].exit_code) {
            ++reader_failures[t];
          }
        }
      }
    });
  }
  threads.emplace_back([&workspace] {
    for (int i = 0; i < 4; ++i) {
      const std::string name = "Memo_" + std::to_string(i);
      VIEWCAP_EXPECT_OK(workspace.Load(
          "view " + name + " { m" + std::to_string(i) + " := pi{B,C}(r); }"));
    }
  });
  for (std::thread& thread : threads) thread.join();
  for (int failures : reader_failures) EXPECT_EQ(failures, 0);
  EXPECT_GT(workspace.answer_memo().Stats().hits, 0u);
}

TEST(ServiceConcurrentTest, ConcurrentProtocolSessionsShareServerStats) {
  Workspace workspace;
  VIEWCAP_ASSERT_OK(workspace.Load(kProgram));
  Dispatcher dispatcher(&workspace);
  ServerStats stats;

  constexpr std::size_t kSessions = 6;
  constexpr std::size_t kRequestsPerSession = 3;
  std::vector<std::string> outputs(kSessions);
  std::vector<std::thread> sessions;
  for (std::size_t s = 0; s < kSessions; ++s) {
    sessions.emplace_back([&dispatcher, &stats, &outputs, s] {
      std::string input;
      for (std::size_t i = 0; i < kRequestsPerSession; ++i) {
        input +=
            R"js({"id":1,"method":"answerable","params":)js"
            R"js({"view":"W","query":"pi{A,B}(r)","threads":2}})js"
            "\n";
      }
      std::istringstream in(input);
      std::ostringstream out;
      ServeSession(dispatcher, &stats, in, out);
      outputs[s] = out.str();
    });
  }
  for (std::thread& session : sessions) session.join();

  for (const std::string& output : outputs) {
    EXPECT_EQ(output, outputs.front());
    EXPECT_NE(output.find("\"verdict\":true"), std::string::npos);
  }
  EXPECT_EQ(stats.sessions.load(), kSessions);
  EXPECT_EQ(stats.requests.load(), kSessions * kRequestsPerSession);
}

}  // namespace
}  // namespace viewcap
