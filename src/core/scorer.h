#ifndef LSWC_CORE_SCORER_H_
#define LSWC_CORE_SCORER_H_

// The pluggable scorer framework of the batch-selection crawl regime
// (Crawl4LLM-style `rating_methods`). A Scorer rates one pending URL
// from its link context and static graph features; the BatchFrontier
// scores each URL with one (usually composite) scorer when it is pushed
// or re-pushed, and selects the top `batch_k` pending URLs per
// iteration.
//
// Determinism contract: Score() must be a pure function of (url,
// inputs, construction-time state) using only arithmetic that is
// bit-reproducible across runs — no libm transcendentals, no global
// state, no NaN results. The batch regime's bit-identical-across-shards
// guarantee rests on this, and so does scoring once per push: a score
// kept from the last push equals what a fresh call would return.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"
#include "webgraph/graph.h"
#include "webgraph/page.h"

namespace lswc {

/// Link-context features of one pending URL, captured at its last
/// (best-referrer) push. Static per-page features (indegree, depth,
/// hashed randomness) are the scorer's own business.
struct ScoreInputs {
  /// Strategy priority the URL was last enqueued with.
  int16_t priority = 0;
  /// Strategy annotation (the limited-distance strategies' consecutive
  /// irrelevant-run length).
  uint8_t annotation = 0;
  /// Whether the referrer that enqueued this URL was judged relevant.
  bool parent_relevant = true;
  /// The classifier's confidence in that referrer judgment.
  double parent_confidence = 1.0;
};

/// Construction-time environment for scorers: the graph static features
/// are read from, and the seed deterministic pseudo-random scorers
/// derive their stream from.
struct ScorerEnv {
  const WebGraph* graph = nullptr;
  uint64_t seed = 0;
};

/// One named term of a score, for the decision journal's forensics:
/// `weighted` is the term's contribution to the total (weight × raw),
/// `raw` the scorer's unweighted output.
struct ScoreComponent {
  std::string name;
  double weighted = 0.0;
  double raw = 0.0;
};

/// Rates one pending URL; higher is fetched sooner. Score() is const;
/// the sharded engine's pending slices share one instance.
class Scorer {
 public:
  virtual ~Scorer() = default;

  virtual double Score(PageId url, const ScoreInputs& inputs) const = 0;

  /// Stable identifier ("lang", "indegree", or a composite spec);
  /// recorded in batch snapshots and validated on restore.
  virtual std::string name() const = 0;

  /// Appends this scorer's per-term breakdown of Score(url, inputs) to
  /// `out`. The default reports one component equal to the total; a
  /// composite reports one per part in spec order. The sum of the
  /// appended `weighted` fields always equals Score() exactly (same
  /// arithmetic, same order), so the journal's breakdowns reproduce the
  /// selection scores bit-for-bit.
  virtual void ScoreComponents(PageId url, const ScoreInputs& inputs,
                               std::vector<ScoreComponent>* out) const {
    const double score = Score(url, inputs);
    out->push_back(ScoreComponent{name(), score, score});
  }
};

using ScorerFactory =
    std::function<StatusOr<std::unique_ptr<Scorer>>(const ScorerEnv&)>;

/// Name -> factory registry. Global() holds the builtins:
///
///   lang      classifier confidence of the referrer, 0 for irrelevant
///             referrers (the language-confidence signal),
///   parent    relevance of the link context: 1 for a relevant
///             referrer, decaying in the irrelevant-run annotation,
///   indegree  bit-scaled static indegree from the link structure
///             (popular pages first),
///   depth     shallow URLs first (index of the page within its host),
///   random    deterministic per-URL hash in [0, 1) (the baseline
///             Crawl4LLM compares rating methods against).
class ScorerRegistry {
 public:
  /// The process-wide registry, builtins pre-registered.
  static ScorerRegistry& Global();

  /// Registers (or replaces) a factory under `name`.
  void Register(const std::string& name, ScorerFactory factory);

  /// Instantiates one scorer; InvalidArgument (naming the known
  /// scorers) when `name` is not registered.
  StatusOr<std::unique_ptr<Scorer>> Make(const std::string& name,
                                         const ScorerEnv& env) const;

  /// Registered names, sorted (for error messages and --help).
  std::vector<std::string> names() const;

 private:
  ScorerRegistry();

  std::vector<std::pair<std::string, ScorerFactory>> factories_;
};

/// Builds a weighted-sum scorer from a spec like
/// "lang:1.0,indegree:0.5" (weight omitted = 1.0), resolving names
/// through ScorerRegistry::Global(). The composite's score is the
/// weighted sum in spec order; its name() is the spec verbatim.
/// InvalidArgument on an empty spec, an unknown scorer name, or an
/// unparsable weight — each error names the offending token.
StatusOr<std::unique_ptr<Scorer>> MakeCompositeScorer(const std::string& spec,
                                                      const ScorerEnv& env);

}  // namespace lswc

#endif  // LSWC_CORE_SCORER_H_
