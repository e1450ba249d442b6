#include "check.hpp"

#include <algorithm>
#include <bit>

namespace perfbench {

namespace {

/// FNV-1a over 64-bit words.
class Digest {
 public:
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      state_ ^= (word >> (8 * i)) & 0xFFu;
      state_ *= 0x100000001B3ull;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  template <typename T>
  void add_all(const std::vector<T>& values) {
    add(static_cast<std::uint64_t>(values.size()));
    for (const T v : values) add(static_cast<std::uint64_t>(v));
  }
  [[nodiscard]] std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0xCBF29CE484222325ull;
};

std::vector<eimm::VertexId> canonical(std::vector<eimm::VertexId> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

void append_ids(std::string& out, const std::vector<eimm::VertexId>& ids) {
  out += '[';
  for (const eimm::VertexId v : ids) {
    out += std::to_string(v);
    out += ',';
  }
  out += ']';
}

}  // namespace

std::string Request::key() const {
  std::string out;
  switch (verb) {
    case Verb::kTopK:
      out = 't';
      out += std::to_string(query.k);
      break;
    case Verb::kSelect:
      out = 's';
      out += std::to_string(query.k);
      append_ids(out, canonical(query.candidates));
      append_ids(out, canonical(query.forbidden));
      break;
    case Verb::kEvaluate:
      out = 'e';  // evaluate is order-sensitive: keep the order
      append_ids(out, seeds);
      break;
  }
  return out;
}

std::uint64_t digest(const eimm::QueryResult& result) {
  Digest d;
  d.add(std::uint64_t{1});
  d.add_all(result.seeds);
  d.add_all(result.marginal_coverage);
  d.add(result.covered_sketches);
  d.add(result.total_sketches);
  d.add(result.estimated_spread);
  return d.value();
}

std::uint64_t digest(const eimm::MarginalGainResult& result) {
  Digest d;
  d.add(std::uint64_t{2});
  d.add_all(result.incremental_coverage);
  d.add(result.covered_sketches);
  d.add(result.total_sketches);
  d.add(result.estimated_spread);
  return d.value();
}

std::uint64_t answer_digest(const eimm::QueryEngine& engine,
                            const Request& request) {
  switch (request.verb) {
    case Request::Verb::kTopK:
      return digest(engine.top_k(request.query.k));
    case Request::Verb::kSelect:
      return digest(engine.answer(request.query));
    case Request::Verb::kEvaluate:
      return digest(engine.evaluate(request.seeds));
  }
  return 0;
}

void ReplyChecker::prefetch(const std::vector<const Request*>& requests,
                            int threads) {
  std::vector<std::string> keys;
  std::vector<eimm::QueryOptions> selects;
  for (const Request* request : requests) {
    std::string key = request->key();
    if (expected_.contains(key)) continue;
    if (request->verb == Request::Verb::kSelect) {
      expected_.emplace(key, 0);  // placeholder, filled below
      keys.push_back(std::move(key));
      selects.push_back(request->query);
    } else {
      expected_.emplace(std::move(key), answer_digest(*engine_, *request));
    }
  }
  const std::vector<eimm::QueryResult> results =
      engine_->run_batch(selects, threads);
  for (std::size_t i = 0; i < results.size(); ++i) {
    expected_[keys[i]] = digest(results[i]);
  }
}

bool ReplyChecker::matches(const Request& request,
                           std::uint64_t reply_digest) {
  std::string key = request.key();
  auto it = expected_.find(key);
  if (it == expected_.end()) {
    it = expected_.emplace(std::move(key), answer_digest(*engine_, request))
             .first;
  }
  return it->second == reply_digest;
}

bool same_seeds(std::span<const eimm::VertexId> a,
                std::span<const eimm::VertexId> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

}  // namespace perfbench
