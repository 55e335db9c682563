#include "views/equivalence.h"

#include <optional>
#include <string>

#include "base/thread_pool.h"

namespace viewcap {

// Built from fingerprints rather than interned ids so a warm repeat never
// touches the interning store (see the header for the key's contract).
std::string DominanceKeyFor(const View& v, const View& w,
                            const SearchLimits& limits) {
  std::string key = "D";
  const auto append_members = [&key](const View& view) {
    for (const ViewDefinition& d : view.definitions()) {
      key += std::to_string(d.rel);
      key += ':';
      key += TableauFingerprint(d.tableau);
      key += ';';
    }
  };
  append_members(v);
  key += '|';
  append_members(w);
  key += '|';
  key += std::to_string(limits.extra_leaves);
  key += ',';
  key += std::to_string(limits.max_leaves);
  key += ',';
  key += std::to_string(limits.max_candidates);
  return key;
}

namespace {

/// The cached answer for `key`: the in-memory dominance cache first, then
/// the attached persistent index, which answers by the same
/// process-independent key. An index hit is promoted into the in-memory
/// cache so the next repeat is a pure memory lookup.
std::optional<DominanceResult> ProbeDominance(Engine& engine,
                                              const std::string& key) {
  if (std::optional<DominanceResult> cached = engine.LookupDominance(key)) {
    return cached;
  }
  if (VerdictIndex* index = engine.attached_index()) {
    if (std::optional<DominanceResult> hit =
            index->LookupDominance(engine, key)) {
      engine.StoreDominance(key, *hit);
      return hit;
    }
  }
  return std::nullopt;
}

/// The Lemma 1.5.4 search behind a ProbeDominance miss; stores its answer
/// under `key`.
Result<DominanceResult> ComputeDominance(Engine& engine, const View& v,
                                         const View& w,
                                         const SearchLimits& limits,
                                         const std::string& key) {
  CapacityOracle oracle(&engine, v, limits);
  DominanceResult result;
  result.dominates = true;
  result.witnesses.resize(w.size());
  for (std::size_t j = 0; j < w.size(); ++j) {
    VIEWCAP_ASSIGN_OR_RETURN(
        MembershipResult membership,
        oracle.Contains(w.definitions()[j].tableau));
    if (membership.member) {
      result.witnesses[j] = membership.witness;
    } else {
      result.dominates = false;
      result.missing.push_back(j);
      if (membership.budget_exhausted) result.inconclusive = true;
    }
  }
  engine.StoreDominance(key, result);
  return result;
}

}  // namespace

Result<DominanceResult> Dominates(Engine& engine, const View& v,
                                  const View& w, SearchLimits limits) {
  if (v.universe() != w.universe()) {
    return Status::IllFormed(
        "views are not over the same underlying universe");
  }
  const std::string key = DominanceKeyFor(v, w, limits);
  if (std::optional<DominanceResult> cached = ProbeDominance(engine, key)) {
    return *std::move(cached);
  }
  return ComputeDominance(engine, v, w, limits, key);
}

Result<DominanceResult> Dominates(const View& v, const View& w,
                                  SearchLimits limits) {
  Engine engine(&v.catalog());
  return Dominates(engine, v, w, limits);
}

Result<EquivalenceResult> AreEquivalent(Engine& engine, const View& v,
                                        const View& w, SearchLimits limits) {
  if (v.universe() != w.universe()) {
    return Status::IllFormed(
        "views are not over the same underlying universe");
  }
  // Both directions probe the caches before any search, so a warm repeat
  // never enters the thread pool. A view compared with itself has one key
  // for both directions: the second probe follows the first search, as
  // in a serial Dominates pair.
  const View* from[2] = {&v, &w};
  const View* to[2] = {&w, &v};
  const std::string keys[2] = {DominanceKeyFor(v, w, limits),
                               DominanceKeyFor(w, v, limits)};
  std::optional<Result<DominanceResult>> directions[2];
  directions[0] = ProbeDominance(engine, keys[0]);
  const bool same_key = keys[1] == keys[0];
  if (!same_key) directions[1] = ProbeDominance(engine, keys[1]);

  const auto compute = [&](std::size_t i) {
    directions[i] = ComputeDominance(engine, *from[i], *to[i], limits, keys[i]);
  };
  const std::size_t threads = ThreadPool::DecideThreads(limits.threads);
  if (!directions[0].has_value() && !same_key &&
      !directions[1].has_value() && threads > 1) {
    // Both directions search concurrently over the shared engine; each
    // direction's membership searches shard further over the same pool.
    // Both are always computed in full (as in the serial path), so the
    // combined verdict is order-independent.
    ParallelFor(engine.SharedPool(threads), threads, 2, compute);
  } else {
    if (!directions[0].has_value()) compute(0);
    if (same_key) directions[1] = ProbeDominance(engine, keys[1]);
    if (!directions[1].has_value()) compute(1);
  }

  EquivalenceResult result;
  VIEWCAP_ASSIGN_OR_RETURN(result.v_over_w, *std::move(directions[0]));
  VIEWCAP_ASSIGN_OR_RETURN(result.w_over_v, *std::move(directions[1]));
  result.equivalent =
      result.v_over_w.dominates && result.w_over_v.dominates;
  result.inconclusive =
      result.v_over_w.inconclusive || result.w_over_v.inconclusive;
  return result;
}

Result<EquivalenceResult> AreEquivalent(const View& v, const View& w,
                                        SearchLimits limits) {
  Engine engine(&v.catalog());
  return AreEquivalent(engine, v, w, limits);
}

}  // namespace viewcap
