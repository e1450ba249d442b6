// Correctness checks: every served reply is compared with the in-process
// QueryEngine answer to the same request, and IMM seed lists with the
// reference run's.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/query_engine.hpp"

namespace perfbench {

/// What a client asks the server; one per request of the query mix.
struct Request {
  enum class Verb { kTopK, kSelect, kEvaluate };
  Verb verb = Verb::kTopK;
  eimm::QueryOptions query;              ///< kTopK (k only) and kSelect
  std::vector<eimm::VertexId> seeds;     ///< kEvaluate

  /// Canonical text of the request (sorted, deduplicated id lists).
  [[nodiscard]] std::string key() const;
};

/// Order-sensitive digest of everything a reply carries: seeds,
/// marginals, coverage counts and the spread estimate's exact bits.
std::uint64_t digest(const eimm::QueryResult& result);
std::uint64_t digest(const eimm::MarginalGainResult& result);

/// The reference answer of a request, from the in-process engine.
std::uint64_t answer_digest(const eimm::QueryEngine& engine,
                            const Request& request);

/// Compares replies with the in-process engine. Expected answers are
/// memoized per distinct request; prefetch() computes the missing ones
/// in one parallel QueryEngine::run_batch.
class ReplyChecker {
 public:
  explicit ReplyChecker(const eimm::QueryEngine& engine) : engine_(&engine) {}

  void prefetch(const std::vector<const Request*>& requests, int threads);
  /// True when `reply_digest` is the digest of the engine's answer.
  [[nodiscard]] bool matches(const Request& request,
                             std::uint64_t reply_digest);

 private:
  const eimm::QueryEngine* engine_;
  std::unordered_map<std::string, std::uint64_t> expected_;
};

/// Seed lists equal element by element, in order.
bool same_seeds(std::span<const eimm::VertexId> a,
                std::span<const eimm::VertexId> b);

}  // namespace perfbench
