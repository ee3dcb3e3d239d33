#include "core/scorer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "util/random.h"
#include "util/string_util.h"

namespace lswc {

namespace {

// All scorers map into [0, 1] using integer bit ops and plain
// arithmetic only, so scores are bit-identical on every platform (libm
// log/exp are not guaranteed to round identically across libcs, and a
// one-ulp difference would flip a top-K selection and break the pinned
// series hashes).

/// Integer log2 scaling: 0 -> 0, otherwise bit_width in (0, 64].
double BitScale(uint64_t value, uint64_t max_value) {
  if (max_value == 0) return 0.0;
  return static_cast<double>(std::bit_width(value)) /
         static_cast<double>(std::bit_width(max_value));
}

class LangScorer final : public Scorer {
 public:
  double Score(PageId /*url*/, const ScoreInputs& inputs) const override {
    return inputs.parent_relevant ? inputs.parent_confidence : 0.0;
  }
  std::string name() const override { return "lang"; }
};

class ParentScorer final : public Scorer {
 public:
  double Score(PageId /*url*/, const ScoreInputs& inputs) const override {
    if (inputs.parent_relevant) return 1.0;
    return 1.0 / (2.0 + static_cast<double>(inputs.annotation));
  }
  std::string name() const override { return "parent"; }
};

class IndegreeScorer final : public Scorer {
 public:
  explicit IndegreeScorer(const WebGraph& graph)
      : indegree_(graph.num_pages(), 0) {
    for (PageId p = 0; p < graph.num_pages(); ++p) {
      for (PageId target : graph.outlinks(p)) ++indegree_[target];
    }
    for (uint32_t d : indegree_) max_indegree_ = std::max<uint64_t>(max_indegree_, d);
  }

  double Score(PageId url, const ScoreInputs& /*inputs*/) const override {
    return BitScale(indegree_[url], max_indegree_);
  }
  std::string name() const override { return "indegree"; }

 private:
  std::vector<uint32_t> indegree_;
  uint64_t max_indegree_ = 0;
};

/// Synthetic web spaces have flat URLs ("/", "/p<k>.html"), so the
/// page's index within its host is the depth proxy: the host root
/// scores 1, later pages decay with the bit-width of their index.
class DepthScorer final : public Scorer {
 public:
  explicit DepthScorer(const WebGraph* graph) : graph_(graph) {}

  double Score(PageId url, const ScoreInputs& /*inputs*/) const override {
    const uint32_t index = graph_->PageIndexInHost(url);
    return 1.0 / (1.0 + static_cast<double>(std::bit_width(index)));
  }
  std::string name() const override { return "depth"; }

 private:
  const WebGraph* graph_;
};

class RandomScorer final : public Scorer {
 public:
  explicit RandomScorer(uint64_t seed) : seed_(seed) {}

  double Score(PageId url, const ScoreInputs& /*inputs*/) const override {
    const uint64_t mixed = Mix64(seed_ ^ (uint64_t{url} + 1));
    return static_cast<double>(mixed >> 11) * 0x1.0p-53;
  }
  std::string name() const override { return "random"; }

 private:
  uint64_t seed_;
};

class CompositeScorer final : public Scorer {
 public:
  CompositeScorer(std::string spec,
                  std::vector<std::pair<std::unique_ptr<Scorer>, double>>
                      parts)
      : spec_(std::move(spec)), parts_(std::move(parts)) {}

  double Score(PageId url, const ScoreInputs& inputs) const override {
    double total = 0.0;
    for (const auto& [scorer, weight] : parts_) {
      total += weight * scorer->Score(url, inputs);
    }
    return total;
  }
  std::string name() const override { return spec_; }

  void ScoreComponents(PageId url, const ScoreInputs& inputs,
                       std::vector<ScoreComponent>* out) const override {
    for (const auto& [scorer, weight] : parts_) {
      const double raw = scorer->Score(url, inputs);
      out->push_back(ScoreComponent{scorer->name(), weight * raw, raw});
    }
  }

 private:
  std::string spec_;
  std::vector<std::pair<std::unique_ptr<Scorer>, double>> parts_;
};

std::string JoinNames(const std::vector<std::string>& names) {
  std::string joined;
  for (const std::string& name : names) {
    if (!joined.empty()) joined += ", ";
    joined += name;
  }
  return joined;
}

}  // namespace

ScorerRegistry::ScorerRegistry() {
  Register("lang", [](const ScorerEnv&) -> StatusOr<std::unique_ptr<Scorer>> {
    return std::unique_ptr<Scorer>(new LangScorer());
  });
  Register("parent",
           [](const ScorerEnv&) -> StatusOr<std::unique_ptr<Scorer>> {
             return std::unique_ptr<Scorer>(new ParentScorer());
           });
  Register("indegree",
           [](const ScorerEnv& env) -> StatusOr<std::unique_ptr<Scorer>> {
             if (env.graph == nullptr) {
               return Status::InvalidArgument(
                   "scorer 'indegree' needs a web graph in its environment");
             }
             return std::unique_ptr<Scorer>(new IndegreeScorer(*env.graph));
           });
  Register("depth",
           [](const ScorerEnv& env) -> StatusOr<std::unique_ptr<Scorer>> {
             if (env.graph == nullptr) {
               return Status::InvalidArgument(
                   "scorer 'depth' needs a web graph in its environment");
             }
             return std::unique_ptr<Scorer>(new DepthScorer(env.graph));
           });
  Register("random",
           [](const ScorerEnv& env) -> StatusOr<std::unique_ptr<Scorer>> {
             return std::unique_ptr<Scorer>(new RandomScorer(env.seed));
           });
}

ScorerRegistry& ScorerRegistry::Global() {
  static ScorerRegistry* registry = new ScorerRegistry();
  return *registry;
}

void ScorerRegistry::Register(const std::string& name,
                              ScorerFactory factory) {
  for (auto& [existing, existing_factory] : factories_) {
    if (existing == name) {
      existing_factory = std::move(factory);
      return;
    }
  }
  factories_.emplace_back(name, std::move(factory));
}

StatusOr<std::unique_ptr<Scorer>> ScorerRegistry::Make(
    const std::string& name, const ScorerEnv& env) const {
  for (const auto& [registered, factory] : factories_) {
    if (registered == name) return factory(env);
  }
  return Status::InvalidArgument("unknown scorer '" + name +
                                 "'; registered scorers: " +
                                 JoinNames(names()));
}

std::vector<std::string> ScorerRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

StatusOr<std::unique_ptr<Scorer>> MakeCompositeScorer(const std::string& spec,
                                                      const ScorerEnv& env) {
  if (spec.empty()) {
    return Status::InvalidArgument(
        "scorer spec is empty; expected \"name[:weight],...\" over: " +
        JoinNames(ScorerRegistry::Global().names()));
  }
  std::vector<std::pair<std::unique_ptr<Scorer>, double>> parts;
  for (const std::string_view token : Split(spec, ',')) {
    if (token.empty()) {
      return Status::InvalidArgument("scorer spec '" + spec +
                                     "' has an empty entry");
    }
    const size_t colon = token.find(':');
    const std::string name(token.substr(0, colon));
    double weight = 1.0;
    if (colon != std::string_view::npos) {
      const std::string_view weight_str = token.substr(colon + 1);
      const auto parsed = ParseDouble(weight_str);
      if (!parsed) {
        return Status::InvalidArgument(
            "scorer '" + name + "' has an unparsable weight '" +
            std::string(weight_str) + "' in spec '" + spec + "'");
      }
      // NaN or infinite weights make NaN scores (inf x 0 for an
      // irrelevant referrer), which break the (score desc, seq asc)
      // order that selection and the sharded merge rely on.
      if (!std::isfinite(*parsed)) {
        return Status::InvalidArgument(
            "scorer '" + name + "' has a non-finite weight '" +
            std::string(weight_str) + "' in spec '" + spec + "'");
      }
      weight = *parsed;
    }
    auto scorer = ScorerRegistry::Global().Make(name, env);
    if (!scorer.ok()) return scorer.status();
    parts.emplace_back(std::move(scorer).value(), weight);
  }
  return std::unique_ptr<Scorer>(
      new CompositeScorer(spec, std::move(parts)));
}

}  // namespace lswc
